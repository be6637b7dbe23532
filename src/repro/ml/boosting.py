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

Training uses **presorted features**: every tree of a boosting round
is fitted on the same rows (one tree per class, one row subsample per
round), so one ``X[idx]``, its transpose and one stable ``argsort`` per
feature are computed per round and shared by the round's trees; without
row subsampling (``subsample=1``) one sort serves the whole fit.  Inside
a tree the sorted index lists are partitioned stably down the nodes
(see :mod:`repro.ml.tree` for the same trick on standalone CART).  A
node scores every feature in one vectorised sweep, and computes the gain
only on its *valid* cells: positions between two distinct feature
values whose children both meet ``min_child_weight`` (about a third of
the cells on the benchmark corpora).  Splits and predictions are
bit-identical to the historical per-node sorting implementation, which
``tests/_ml_oracle.py`` keeps as the oracle of
``tests/test_ml_presort_equivalence.py``.  Predictions read the fitted
ensemble's compiled table (:mod:`repro.ml.compiled`).

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
from .base import BaseEstimator, check_X_y

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


class _Presorted:
    """One sample matrix's features in sorted order, shared by the trees
    fitted on it: ``order[f]`` lists the rows by ascending feature ``f``
    (stable argsort), ``flat`` is ``X.T`` flattened with feature ``f``'s
    values starting at ``offsets[f]``, and ``left`` is the boolean
    scratch of the stable node partition."""

    __slots__ = ("flat", "order", "offsets", "left")

    def __init__(self, X: np.ndarray) -> None:
        n, n_features = X.shape
        XT = np.ascontiguousarray(X.T)
        self.flat = XT.ravel()
        self.order = np.argsort(XT, axis=1, kind="stable")
        self.offsets = np.arange(n_features, dtype=np.intp)[:, None] * n
        self.left = np.empty(n, dtype=bool)


class _BoostTree:
    """One regression tree on (gradient, hessian) statistics."""

    def __init__(self, max_depth: int, reg_lambda: float, gamma: float,
                 min_child_weight: float) -> None:
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.gain_by_feature: Optional[np.ndarray] = None
        self.splits_by_feature: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray, g: np.ndarray, h: np.ndarray,
            presorted: _Presorted) -> "_BoostTree":
        """Fit to gradients; ``presorted`` is ``X``'s shared sort, which
        the booster computes once per round (or per fit) for all the
        trees fitted on the same rows."""
        self.n_features = X.shape[1]
        self.gain_by_feature = np.zeros(self.n_features)
        self.splits_by_feature = np.zeros(self.n_features, dtype=np.int64)
        self._sorted = presorted
        self.root = self._build(X, g, h, np.arange(X.shape[0]),
                                presorted.order, depth=0)
        self._sorted = None
        return self

    def _leaf_weight(self, G: float, H: float) -> float:
        return -G / (H + self.reg_lambda)

    def _build(
        self,
        X: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        idx: np.ndarray,
        sorted_idx: np.ndarray,
        depth: int,
    ) -> _BNode:
        G, H = float(g[idx].sum()), float(h[idx].sum())
        node = _BNode(weight=self._leaf_weight(G, H))
        if depth >= self.max_depth or idx.size < 2 or H < 2 * self.min_child_weight:
            return node

        lam = self.reg_lambda
        mcw = self.min_child_weight
        parent_score = G * G / (H + lam)
        # Score every feature in one vectorised sweep.  Each row of the
        # (F, m) arrays is the node's samples in that feature's sorted
        # order, so one axis-1 cumsum replaces a per-feature Python loop
        # (row-wise cumsum accumulates in the same sequence as the 1-D
        # version).  Cell (f, i) splits after position i; the gain is
        # computed only on the valid cells, with the exact operation
        # sequence of the historical per-node sorting loop (the oracle
        # in tests/_ml_oracle.py), so results stay bitwise identical.
        m = idx.size
        xo = self._sorted.flat.take(sorted_idx + self._sorted.offsets)
        GL = g.take(sorted_idx).cumsum(axis=1)
        HL = h.take(sorted_idx).cumsum(axis=1)
        valid = xo[:, 1:] != xo[:, :-1]
        valid &= HL[:, :-1] >= mcw
        valid &= H - HL[:, :-1] >= mcw
        cells = np.flatnonzero(valid)
        if cells.size == 0:
            return node
        cells += cells // (m - 1)     # (F, m-1) cell -> (F, m) position
        GL = GL.ravel().take(cells)
        HL = HL.ravel().take(cells)
        gain = G - GL            # becomes GR, then the full gain in place
        gain *= gain             # GR²
        HR = H - HL
        HR += lam
        gain /= HR               # GR²/(HR+λ)
        GL *= GL                 # GL²
        HL += lam
        GL /= HL                 # GL²/(HL+λ)
        gain += GL
        gain -= parent_score
        gain *= 0.5
        gain -= self.gamma
        # The cells are in C order, so argmax ties break on (first
        # feature, first position), exactly like the oracle's sequential
        # strictly-greater loop.
        j = int(np.argmax(gain))
        if not gain[j] > 0.0:
            return node
        best_gain = float(gain[j])
        best_feat, i = divmod(int(cells[j]), m)
        best_thr = 0.5 * float(xo[best_feat, i] + xo[best_feat, i + 1])

        node.feature = best_feat
        node.threshold = best_thr
        self.gain_by_feature[best_feat] += best_gain
        self.splits_by_feature[best_feat] += 1
        left = X[idx, best_feat] <= best_thr
        idx_l, idx_r = idx[left], idx[~left]
        # Stable partition of the per-feature sorted index lists via a
        # shared boolean scratch (same trick as repro.ml.tree);
        # ``compress`` on the flat lists skips 2-D mask indexing.
        buf = self._sorted.left
        buf[idx] = left
        take = buf.take(sorted_idx).ravel()
        flat = sorted_idx.ravel()
        sl = flat.compress(take).reshape(self.n_features, idx_l.size)
        sr = flat.compress(~take).reshape(self.n_features, idx_r.size)
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

    #: Whether ``trees_`` holds one list of per-class trees per round.
    _per_class = False

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
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.subsample = subsample
        self.seed = seed

    def _check_hyper(self) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")

    def _cold_setup(self, X: np.ndarray) -> np.random.Generator:
        """Empty ensemble and importance accumulators for ``fit``."""
        self.trees_: list = []
        self._gain_acc = np.zeros(X.shape[1])
        self._fscore_acc = np.zeros(X.shape[1], dtype=np.int64)
        return np.random.default_rng(self.seed)

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

    def _subsample_idx(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.subsample >= 1.0:
            return np.arange(n)
        k = max(1, int(round(self.subsample * n)))
        return rng.choice(n, size=k, replace=False)

    def _boost(self, X: np.ndarray, margins: np.ndarray, stats, rounds: int,
               rng: np.random.Generator, track: bool = False) -> None:
        """Run ``rounds`` boosting rounds: the one loop of both boosters'
        ``fit`` and ``warm_fit``.

        ``stats(margins, idx)`` gives the round's ``(K, m)`` gradient
        and hessian rows on the sampled rows ``idx``.  Tree ``k`` of the
        round fits row ``k`` and adds its shrunk predictions to
        ``margins[:, k]`` in place.  The K trees of a round see the same
        rows, so they share one sort of them; without row subsampling
        one sort serves every round.
        """
        n = X.shape[0]
        whole = self.subsample >= 1.0
        fit_sort = _Presorted(X) if whole else None
        fit_start = time.perf_counter() if track else 0.0
        for _ in range(rounds):
            round_start = time.perf_counter() if track else 0.0
            idx = self._subsample_idx(n, rng)
            if whole:
                Xs, sort = X, fit_sort
            else:
                Xs = X[idx]
                sort = _Presorted(Xs)
            g, h = stats(margins, idx)
            trees = []
            for k in range(g.shape[0]):
                tree = _BoostTree(self.max_depth, self.reg_lambda, self.gamma,
                                  self.min_child_weight)
                tree.fit(Xs, g[k], h[k], sort)
                trees.append(tree)
                self._gain_acc += tree.gain_by_feature
                self._fscore_acc += tree.splits_by_feature
                margins[:, k] += self.learning_rate * tree.predict(X)
            self.trees_.append(trees if self._per_class else trees[0])
            if track:
                obs.incr("ml.boosting.rounds")
                obs.observe("ml.boosting.round_seconds",
                            time.perf_counter() - round_start)
        if track:
            obs.record_span("ml.boosting.fit", time.perf_counter() - fit_start)
        total = self._gain_acc.sum()
        self.feature_importances_ = (
            self._gain_acc / total if total > 0 else self._gain_acc
        )
        self.f_scores_ = self._fscore_acc.copy()
        # The loop above predicts with each tree's node walk (a tree
        # predicts right after it is built); serving reads one flat
        # table fusing the whole ensemble.
        self.compiled_ = _compiled.compile_boost(self._flat_trees())

    def _flat_trees(self) -> List[_BoostTree]:
        """Member trees in accumulation order: (round, class) for the
        classifier, the order ``decision_function`` adds margins in."""
        if self._per_class:
            return [tree for round_trees in self.trees_ for tree in round_trees]
        return self.trees_


class GradientBoostingRegressor(_BaseBooster):
    """Squared-error gradient boosting (g = residual, h = 1)."""

    @staticmethod
    def _residuals(y: np.ndarray):
        def stats(pred: np.ndarray, idx: np.ndarray):
            g = pred[idx, 0] - y[idx]
            return g[None], np.ones((1, g.size))
        return stats

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        self._check_hyper()
        X, y = check_X_y(X, y)
        y = y.astype(np.float64)
        rng = self._cold_setup(X)
        self.base_score_ = float(y.mean())
        pred = np.full((y.size, 1), self.base_score_)
        self._boost(X, pred, self._residuals(y), self.n_estimators, rng,
                    track=obs.enabled())
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
        self._boost(X, self.predict(X)[:, None], self._residuals(y), rounds, rng)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted("trees_", "compiled_")
        X = self._check_X_width(X, self.feature_importances_.size)
        pred = np.full(X.shape[0], self.base_score_)
        # One fused traversal yields every tree's leaf weight; the
        # shrinkage accumulation below applies the identical op
        # sequence as a per-tree node loop, tree by tree.
        w = self.compiled_.leaf_scalars(X)
        for t in range(w.shape[0]):
            pred += self.learning_rate * w[t]
        return pred


class GradientBoostingClassifier(_BaseBooster):
    """Softmax multiclass gradient boosting (one tree per class/round)."""

    _per_class = True

    def _softmax_stats(self, y: np.ndarray):
        onehot = np.zeros((self.n_classes_, y.size))
        onehot[y, np.arange(y.size)] = 1.0

        def stats(margins: np.ndarray, idx: np.ndarray):
            # Softmax of the sampled rows' margins, one row per class.
            p = margins[idx]
            p -= p.max(axis=1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=1, keepdims=True)
            p = np.ascontiguousarray(p.T)
            return p - onehot[:, idx], np.maximum(p * (1.0 - p), 1e-6)
        return stats

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        self._check_hyper()
        X, y = check_X_y(X, y)
        y = y.astype(np.int64)
        if y.min() < 0:
            raise ValueError("class labels must be non-negative integers")
        rng = self._cold_setup(X)
        self.n_classes_ = int(y.max()) + 1
        margins = np.zeros((y.size, self.n_classes_))
        self._boost(X, margins, self._softmax_stats(y), self.n_estimators, rng,
                    track=obs.enabled())
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
        self._boost(X, self.decision_function(X), self._softmax_stats(y),
                    rounds, rng)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw per-class margins (pre-softmax)."""
        self._require_fitted("trees_", "compiled_")
        X = self._check_X_width(X, self.feature_importances_.size)
        margins = np.zeros((X.shape[0], self.n_classes_))
        # Fused table rows are the (round, class)-ordered trees.  A
        # cumulative sum over the rounds adds each margin element's
        # terms in a nested per-tree loop's order (classes are
        # independent columns); adding the total to zeros repeats the
        # loop's 0.0 start, which turns an all -0.0 sum to +0.0.  The
        # round count is explicit, so zero rows reshape too.
        table = self.compiled_
        w = table.leaf_scalars(X).reshape(
            table.n_trees // self.n_classes_, self.n_classes_, X.shape[0])
        w *= self.learning_rate
        np.cumsum(w, axis=0, out=w)
        margins += w[-1].T
        return margins

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        m = self.decision_function(X)
        m -= m.max(axis=1, keepdims=True)
        e = np.exp(m)
        return e / e.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(X), axis=1)
