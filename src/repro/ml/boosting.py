"""XGBoost-style gradient-boosted trees (classifier + regressor).

A faithful second-order implementation of the algorithm the paper's
best model uses (Sec. II-B.4): each round fits regression trees to the
gradient/hessian statistics of the current predictions, with the
XGBoost gain

    gain = 1/2 [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ

exact greedy splits, shrinkage (``learning_rate``), L2 leaf
regularisation (``reg_lambda``), minimum split gain (``gamma``), and
optional row subsampling.  Multiclass classification trains one tree
per class per round on softmax gradients.

Training uses **presorted features** throughout: the feature matrix
``X`` never changes across boosting rounds (or across the per-class
trees of one round), so the per-feature stable ``argsort`` is computed
exactly once per ``fit`` and shared by every tree; inside a tree the
sorted index lists are partitioned stably down the nodes (see
:mod:`repro.ml.tree` for the same trick on standalone CART).  With row
subsampling (``subsample < 1``) each tree sees a different sample set,
so the root sort is per-tree — still hoisted out of the per-node loop.
Splits and predictions are bit-identical to the historical per-node
sorting implementation (``presort=False`` keeps it selectable as the
oracle of ``tests/test_ml_presort_equivalence.py``).

Feature importance is reported both ways XGBoost does:

* ``feature_importances_`` — total split gain per feature (normalised),
* ``f_scores_`` — raw split counts, the "F score" plotted in the
  paper's Figs. 4–5.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .. import obs

from . import compiled as _compiled
from .base import BaseEstimator, check_X, check_X_y

__all__ = ["GradientBoostingClassifier", "GradientBoostingRegressor"]


@dataclass
class _BNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_BNode"] = None
    right: Optional["_BNode"] = None
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class _BoostTree:
    """One regression tree on (gradient, hessian) statistics."""

    def __init__(self, max_depth: int, reg_lambda: float, gamma: float,
                 min_child_weight: float, presort: bool = True) -> None:
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.presort = presort
        self.gain_by_feature: Optional[np.ndarray] = None
        self.splits_by_feature: Optional[np.ndarray] = None

    def fit(
        self,
        X: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        sorted_idx: Optional[np.ndarray] = None,
    ) -> "_BoostTree":
        """Fit to gradients; ``sorted_idx`` is the optional (n_features,
        n) per-feature stable argsort of ``X``, shared across trees by
        the booster so it is computed once per boosting fit."""
        self.n_features = X.shape[1]
        self.gain_by_feature = np.zeros(self.n_features)
        self.splits_by_feature = np.zeros(self.n_features, dtype=np.int64)
        n = X.shape[0]
        if sorted_idx is None and self.presort:
            sorted_idx = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        if sorted_idx is not None:
            self._left_buf = np.empty(n, dtype=bool)
            self._XT = np.ascontiguousarray(X.T)
        else:
            self._left_buf = None
            self._XT = None
        self.root = self._build(X, g, h, np.arange(n), sorted_idx, depth=0)
        self._left_buf = None
        self._XT = None
        return self

    def _leaf_weight(self, G: float, H: float) -> float:
        return -G / (H + self.reg_lambda)

    def _build(
        self,
        X: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        idx: np.ndarray,
        sorted_idx: Optional[np.ndarray],
        depth: int,
    ) -> _BNode:
        gs, hs = g[idx], h[idx]
        G, H = float(gs.sum()), float(hs.sum())
        node = _BNode(weight=self._leaf_weight(G, H))
        if depth >= self.max_depth or idx.size < 2 or H < 2 * self.min_child_weight:
            return node

        lam = self.reg_lambda
        parent_score = G * G / (H + lam)
        best_gain, best_feat, best_thr = 0.0, -1, 0.0
        if sorted_idx is not None:
            # Presorted path: score every feature in one vectorised sweep.
            # Each row of the (F, n) arrays is the node's samples in that
            # feature's sorted order, so one axis-1 cumsum replaces the
            # per-feature Python loop (row-wise cumsum accumulates in the
            # same sequence as the 1-D version, and the in-place updates
            # below apply the exact operation sequence of the loop, so
            # results stay bitwise identical to the historical per-node
            # sorting code).
            xo = np.take_along_axis(self._XT, sorted_idx, axis=1)
            go = np.take(g, sorted_idx)
            ho = np.take(h, sorted_idx)
            GL = np.cumsum(go, axis=1)[:, :-1]
            HL = np.cumsum(ho, axis=1)[:, :-1]
            valid = xo[:, 1:] != xo[:, :-1]
            valid &= HL >= self.min_child_weight
            HR = H - HL
            valid &= HR >= self.min_child_weight
            if not valid.any():
                return node
            gain = G - GL            # becomes GR, then the full gain in place
            gain *= gain             # GR²
            HR += lam
            gain /= HR               # GR²/(HR+λ)
            GL *= GL                 # GL²
            HL += lam
            GL /= HL                 # GL²/(HL+λ)
            gain += GL
            gain -= parent_score
            gain *= 0.5
            gain -= self.gamma
            np.logical_not(valid, out=valid)
            np.copyto(gain, -np.inf, where=valid)
            # C-order argmax ties break on (first feature, first position),
            # exactly like the sequential strictly-greater loop below.
            flat = int(np.argmax(gain))
            f, i = divmod(flat, idx.size - 1)
            if gain[f, i] > best_gain:
                best_gain = float(gain[f, i])
                best_feat = f
                best_thr = 0.5 * float(xo[f, i] + xo[f, i + 1])
        else:
            for f in range(self.n_features):
                xs = X[idx, f]
                order = np.argsort(xs, kind="stable")
                xo, go, ho = xs[order], gs[order], hs[order]
                GL = np.cumsum(go)[:-1]
                HL = np.cumsum(ho)[:-1]
                valid = xo[1:] != xo[:-1]
                valid &= (HL >= self.min_child_weight) & (H - HL >= self.min_child_weight)
                if not valid.any():
                    continue
                GR, HR = G - GL, H - HL
                gain = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent_score) - self.gamma
                gain[~valid] = -np.inf
                i = int(np.argmax(gain))
                if gain[i] > best_gain:
                    best_gain = float(gain[i])
                    best_feat = f
                    best_thr = 0.5 * float(xo[i] + xo[i + 1])
        if best_feat < 0:
            return node

        node.feature = best_feat
        node.threshold = best_thr
        self.gain_by_feature[best_feat] += best_gain
        self.splits_by_feature[best_feat] += 1
        left = X[idx, best_feat] <= best_thr
        idx_l, idx_r = idx[left], idx[~left]
        if sorted_idx is None:
            sl = sr = None
        else:
            # Stable partition of the per-feature sorted index lists via
            # a shared boolean scratch (same trick as repro.ml.tree).
            buf = self._left_buf
            buf[idx] = left
            take = buf[sorted_idx]
            sl = sorted_idx[take].reshape(self.n_features, idx_l.size)
            sr = sorted_idx[~take].reshape(self.n_features, idx_r.size)
        node.left = self._build(X, g, h, idx_l, sl, depth + 1)
        node.right = self._build(X, g, h, idx_r, sr, depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        out = np.empty(n)
        # Shared root index vector + one reused boolean scratch (the
        # fancy-index copies detach from it immediately).
        mask_buf = np.empty(n, dtype=bool)
        stack = [(self.root, _compiled.shared_arange(n))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.weight
                continue
            mask = np.less_equal(
                X[idx, node.feature], node.threshold, out=mask_buf[: idx.size]
            )
            idx_left = idx[mask]
            np.logical_not(mask, out=mask)
            stack.append((node.left, idx_left))
            stack.append((node.right, idx[mask]))
        return out


class _BaseBooster(BaseEstimator):
    """Shared boosting loop; subclasses supply gradients."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 6,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_child_weight: float = 1.0,
        subsample: float = 1.0,
        seed: int = 0,
        presort: bool = True,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.subsample = subsample
        self.seed = seed
        self.presort = presort

    def _check_hyper(self) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")

    def _new_tree(self) -> _BoostTree:
        return _BoostTree(self.max_depth, self.reg_lambda, self.gamma,
                          self.min_child_weight, presort=self.presort)

    def _root_sort(self, X: np.ndarray) -> Optional[np.ndarray]:
        """The fit-wide presort, when every tree sees all of ``X``.

        X never changes across boosting rounds (or per-class trees), so
        without row subsampling one stable argsort per feature serves
        every tree of the whole fit.
        """
        if self.presort and self.subsample >= 1.0:
            return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        return None

    def _accumulate_importance(self, tree: _BoostTree) -> None:
        self._gain_acc += tree.gain_by_feature
        self._fscore_acc += tree.splits_by_feature

    def _finalise_importance(self) -> None:
        total = self._gain_acc.sum()
        self.feature_importances_ = (
            self._gain_acc / total if total > 0 else self._gain_acc
        )
        self.f_scores_ = self._fscore_acc.copy()

    def _subsample_idx(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.subsample >= 1.0:
            return np.arange(n)
        k = max(1, int(round(self.subsample * n)))
        return rng.choice(n, size=k, replace=False)

    def _warm_setup(self, X: np.ndarray, n_rounds) -> tuple:
        """Shared warm-start plumbing: round count, derived RNG,
        importance accumulators (absent after a registry round-trip)."""
        rounds = self.n_estimators if n_rounds is None else int(n_rounds)
        if rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        # A fresh derived RNG per warm round keeps repeated warm fits
        # deterministic without replaying the cold fit's stream.
        rng = np.random.default_rng((self.seed, 0x5EED, len(self.trees_)))
        if not hasattr(self, "_gain_acc"):
            self._gain_acc = np.zeros(X.shape[1])
            self._fscore_acc = np.zeros(X.shape[1], dtype=np.int64)
        return rounds, rng

    def _flat_trees(self) -> List[_BoostTree]:
        """Member trees in accumulation order; overridden by the
        classifier whose ensemble is nested per round."""
        return self.trees_

    def _compile(self) -> None:
        """Fuse the whole ensemble into one flat-array table.

        Called at the end of ``fit``/``warm_fit`` — the boosting loop
        itself keeps using the per-tree node walk (each tree predicts
        right after being built, before the ensemble is final).
        """
        self.compiled_ = _compiled.compile_boost(self._flat_trees())



class GradientBoostingRegressor(_BaseBooster):
    """Squared-error gradient boosting (g = residual, h = 1)."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        self._check_hyper()
        X, y = check_X_y(X, y)
        y = y.astype(np.float64)
        rng = np.random.default_rng(self.seed)
        self.base_score_ = float(y.mean())
        self.trees_: List[_BoostTree] = []
        self._gain_acc = np.zeros(X.shape[1])
        self._fscore_acc = np.zeros(X.shape[1], dtype=np.int64)
        pred = np.full(y.shape, self.base_score_)
        root_sorted = self._root_sort(X)
        track = obs.enabled()
        fit_start = time.perf_counter() if track else 0.0
        for _ in range(self.n_estimators):
            round_start = time.perf_counter() if track else 0.0
            idx = self._subsample_idx(y.size, rng)
            g = pred[idx] - y[idx]
            h = np.ones_like(g)
            if root_sorted is not None:
                tree = self._new_tree().fit(X, g, h, sorted_idx=root_sorted)
            else:
                tree = self._new_tree().fit(X[idx], g, h)
            self.trees_.append(tree)
            self._accumulate_importance(tree)
            pred += self.learning_rate * tree.predict(X)
            if track:
                obs.incr("ml.boosting.rounds")
                obs.observe("ml.boosting.round_seconds",
                            time.perf_counter() - round_start)
        if track:
            obs.record_span("ml.boosting.fit", time.perf_counter() - fit_start)
        self._finalise_importance()
        self._compile()
        return self

    def warm_fit(
        self, X: np.ndarray, y: np.ndarray, n_rounds=None
    ) -> "GradientBoostingRegressor":
        """Append boosting rounds fitted on new rows (in place).

        The existing ensemble's predictions on ``X`` seed the gradient,
        so new trees correct the old model on the new data — the
        XGBoost continuation scheme.  ``n_rounds`` defaults to
        ``n_estimators``; online refreshes typically pass fewer.
        """
        self._require_fitted("trees_", "base_score_")
        self._check_hyper()
        X, y = check_X_y(X, y)
        y = y.astype(np.float64)
        rounds, rng = self._warm_setup(X, n_rounds)
        pred = self.predict(X)
        root_sorted = self._root_sort(X)
        for _ in range(rounds):
            idx = self._subsample_idx(y.size, rng)
            g = pred[idx] - y[idx]
            h = np.ones_like(g)
            if root_sorted is not None:
                tree = self._new_tree().fit(X, g, h, sorted_idx=root_sorted)
            else:
                tree = self._new_tree().fit(X[idx], g, h)
            self.trees_.append(tree)
            self._accumulate_importance(tree)
            pred += self.learning_rate * tree.predict(X)
        self._finalise_importance()
        self._compile()
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted("trees_")
        X = check_X(X)
        pred = np.full(X.shape[0], self.base_score_)
        table = getattr(self, "compiled_", None)
        if table is not None and _compiled.compiled_enabled():
            # One fused traversal yields every tree's leaf weight; the
            # shrinkage accumulation below applies the identical op
            # sequence as the per-tree node loop, tree by tree.
            w = table.leaf_scalars(X)
            for t in range(w.shape[0]):
                pred += self.learning_rate * w[t]
        else:
            for tree in self.trees_:
                pred += self.learning_rate * tree.predict(X)
        return pred


class GradientBoostingClassifier(_BaseBooster):
    """Softmax multiclass gradient boosting (one tree per class/round)."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        self._check_hyper()
        X, y = check_X_y(X, y)
        y = y.astype(np.int64)
        if y.min() < 0:
            raise ValueError("class labels must be non-negative integers")
        self.n_classes_ = int(y.max()) + 1
        K = self.n_classes_
        n = y.size
        rng = np.random.default_rng(self.seed)
        onehot = np.zeros((n, K))
        onehot[np.arange(n), y] = 1.0
        margins = np.zeros((n, K))
        self.trees_: List[List[_BoostTree]] = []
        self._gain_acc = np.zeros(X.shape[1])
        self._fscore_acc = np.zeros(X.shape[1], dtype=np.int64)
        root_sorted = self._root_sort(X)
        track = obs.enabled()
        fit_start = time.perf_counter() if track else 0.0
        for _ in range(self.n_estimators):
            round_start = time.perf_counter() if track else 0.0
            # Softmax probabilities of the current margins.
            m = margins - margins.max(axis=1, keepdims=True)
            e = np.exp(m)
            p = e / e.sum(axis=1, keepdims=True)
            idx = self._subsample_idx(n, rng)
            round_trees: List[_BoostTree] = []
            for k in range(K):
                g = (p[idx, k] - onehot[idx, k])
                h = np.maximum(p[idx, k] * (1.0 - p[idx, k]), 1e-6)
                if root_sorted is not None:
                    tree = self._new_tree().fit(X, g, h, sorted_idx=root_sorted)
                else:
                    tree = self._new_tree().fit(X[idx], g, h)
                round_trees.append(tree)
                self._accumulate_importance(tree)
                margins[:, k] += self.learning_rate * tree.predict(X)
            self.trees_.append(round_trees)
            if track:
                obs.incr("ml.boosting.rounds")
                obs.observe("ml.boosting.round_seconds",
                            time.perf_counter() - round_start)
        if track:
            obs.record_span("ml.boosting.fit", time.perf_counter() - fit_start)
        self._finalise_importance()
        self._compile()
        return self

    def warm_fit(
        self, X: np.ndarray, y: np.ndarray, n_rounds=None
    ) -> "GradientBoostingClassifier":
        """Append boosting rounds fitted on new rows (in place).

        Continues the softmax boosting from the current ensemble's
        margins on ``X``; the class vocabulary is frozen by the cold
        fit, so labels must stay below ``n_classes_``.
        """
        self._require_fitted("trees_", "n_classes_")
        self._check_hyper()
        X, y = check_X_y(X, y)
        y = y.astype(np.int64)
        if y.min() < 0 or y.max() >= self.n_classes_:
            raise ValueError(
                f"warm_fit labels must stay within the fitted "
                f"{self.n_classes_} classes; got range [{y.min()}, {y.max()}]"
            )
        rounds, rng = self._warm_setup(X, n_rounds)
        K = self.n_classes_
        n = y.size
        onehot = np.zeros((n, K))
        onehot[np.arange(n), y] = 1.0
        margins = self.decision_function(X)
        root_sorted = self._root_sort(X)
        for _ in range(rounds):
            m = margins - margins.max(axis=1, keepdims=True)
            e = np.exp(m)
            p = e / e.sum(axis=1, keepdims=True)
            idx = self._subsample_idx(n, rng)
            round_trees: List[_BoostTree] = []
            for k in range(K):
                g = p[idx, k] - onehot[idx, k]
                h = np.maximum(p[idx, k] * (1.0 - p[idx, k]), 1e-6)
                if root_sorted is not None:
                    tree = self._new_tree().fit(X, g, h, sorted_idx=root_sorted)
                else:
                    tree = self._new_tree().fit(X[idx], g, h)
                round_trees.append(tree)
                self._accumulate_importance(tree)
                margins[:, k] += self.learning_rate * tree.predict(X)
            self.trees_.append(round_trees)
        self._finalise_importance()
        self._compile()
        return self

    def _flat_trees(self) -> List[_BoostTree]:
        # Flatten the nested per-round lists in (round, class) order —
        # the same order decision_function accumulates margins in.
        return [tree for round_trees in self.trees_ for tree in round_trees]

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw per-class margins (pre-softmax)."""
        self._require_fitted("trees_")
        X = check_X(X)
        margins = np.zeros((X.shape[0], self.n_classes_))
        table = getattr(self, "compiled_", None)
        if table is not None and _compiled.compiled_enabled():
            # Fused table rows are the (round, class)-ordered trees.
            # Accumulating round-by-round keeps every margin element's
            # addition sequence identical to the nested node-walk loop
            # (classes are independent columns), in K× fewer numpy ops.
            K = self.n_classes_
            w = table.leaf_scalars(X).reshape(-1, K, X.shape[0])
            for r in range(w.shape[0]):
                margins += self.learning_rate * w[r].T
        else:
            for round_trees in self.trees_:
                for k, tree in enumerate(round_trees):
                    margins[:, k] += self.learning_rate * tree.predict(X)
        return margins

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        m = self.decision_function(X)
        m -= m.max(axis=1, keepdims=True)
        e = np.exp(m)
        return e / e.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(X), axis=1)
