"""CART decision trees (classifier + regressor), pure numpy.

The paper uses decision trees both directly (the "decs. tree" column of
Tables IV–X, following Sedaghati et al.) and as the weak learner inside
the XGBoost-style booster (:mod:`repro.ml.boosting`).

The implementation is exact greedy CART with **presorted features**
(the classic scikit-learn/LightGBM presort trick): every feature is
``argsort``-ed once at the root, and the per-feature sorted index
partitions are maintained down the tree with a stable O(n) boolean
partition per node.  Candidate thresholds at a node are then scored in
a single vectorised pass over the already-sorted values (prefix class
counts for Gini, prefix moments for variance reduction), so a node
costs O(n_features · n) instead of the O(n_features · n log n) of
re-sorting at every node.

Because both the root argsort and the partition are stable, the value
/ target sequences seen at every node are *identical* to the historical
per-node ``np.argsort(kind="stable")`` implementation, so splits,
thresholds and predictions are bit-for-bit unchanged (asserted by
``tests/test_ml_presort_equivalence.py``).  Fits smaller than
:data:`PRESORT_MIN_SAMPLES` take that per-node sorting path: there the
root argsort and index bookkeeping cost more than they save.  The test
forces it on larger fits by raising the threshold, which makes it the
presorted path's oracle.

Predictions read the fitted tree's compiled table
(:mod:`repro.ml.compiled`); the node-graph walk it replaced is kept in
``tests/_ml_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import compiled as _compiled
from .base import BaseEstimator, check_X_y

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor", "PRESORT_MIN_SAMPLES"]

#: Sample count below which fits take the per-node sorting path.
#: Measured crossover on the labeling feature matrices: presort is
#: ~0.94x at n=36 and only breaks even around n≈128, gaining 1.1–1.15x
#: from n≈256 up.  Both paths build bit-identical trees, so the
#: threshold affects speed only.
PRESORT_MIN_SAMPLES = 128


@dataclass
class _Node:
    """One tree node; leaves have ``feature == -1``."""

    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    value: Optional[np.ndarray] = None  # class probs (clf) or [mean] (reg)
    n_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def _best_split_gini_sorted(
    xs: np.ndarray, ys: np.ndarray, n_classes: int, min_leaf: int
):
    """Best (threshold, impurity decrease) for Gini on presorted values.

    ``xs`` must be ascending with ties in stable (original-index) order
    and ``ys`` aligned to it.  Returns ``(None, 0)`` when no admissible
    split exists.
    """
    n = xs.size
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), ys] = 1.0
    left_counts = np.cumsum(onehot, axis=0)            # counts after i+1 items
    total = left_counts[-1]
    # Candidate split after position i (1-based count i+1); admissible when
    # the value actually changes and both sides satisfy min_leaf.
    i = np.arange(1, n)
    valid = xs[1:] != xs[:-1]
    valid &= (i >= min_leaf) & (n - i >= min_leaf)
    if not valid.any():
        return None, 0.0
    nl = i.astype(np.float64)
    nr = n - nl
    lc = left_counts[:-1]
    rc = total - lc
    gini_l = 1.0 - np.sum((lc / nl[:, None]) ** 2, axis=1)
    gini_r = 1.0 - np.sum((rc / nr[:, None]) ** 2, axis=1)
    parent = 1.0 - np.sum((total / n) ** 2)
    decrease = parent - (nl * gini_l + nr * gini_r) / n
    decrease[~valid] = -np.inf
    best = int(np.argmax(decrease))
    if decrease[best] <= 1e-12:
        return None, 0.0
    thr = 0.5 * (xs[best] + xs[best + 1])
    return float(thr), float(decrease[best])


def _best_split_gini(Xf: np.ndarray, y: np.ndarray, n_classes: int, min_leaf: int):
    """Best Gini split of one unsorted feature (sorts, then scores)."""
    order = np.argsort(Xf, kind="stable")
    return _best_split_gini_sorted(Xf[order], y[order], n_classes, min_leaf)


def _best_split_mse_sorted(xs: np.ndarray, ys: np.ndarray, min_leaf: int):
    """Best (threshold, SSE decrease / n) on presorted values."""
    n = xs.size
    csum = np.cumsum(ys)
    csq = np.cumsum(ys * ys)
    i = np.arange(1, n)
    valid = xs[1:] != xs[:-1]
    valid &= (i >= min_leaf) & (n - i >= min_leaf)
    if not valid.any():
        return None, 0.0
    nl = i.astype(np.float64)
    nr = n - nl
    sl, sq_l = csum[:-1], csq[:-1]
    sr, sq_r = csum[-1] - sl, csq[-1] - sq_l
    sse = (sq_l - sl * sl / nl) + (sq_r - sr * sr / nr)
    parent = csq[-1] - csum[-1] ** 2 / n
    decrease = (parent - sse) / n
    decrease[~valid] = -np.inf
    best = int(np.argmax(decrease))
    if decrease[best] <= 1e-12:
        return None, 0.0
    thr = 0.5 * (xs[best] + xs[best + 1])
    return float(thr), float(decrease[best])


def _best_split_mse(Xf: np.ndarray, y: np.ndarray, min_leaf: int):
    """Best regression split of one unsorted feature (sorts, then scores)."""
    order = np.argsort(Xf, kind="stable")
    return _best_split_mse_sorted(Xf[order], y[order], min_leaf)


class _BaseTree(BaseEstimator):
    """Shared CART machinery; subclasses define leaf values and splits."""

    def __init__(
        self,
        max_depth: int = 16,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed

    # subclass hooks ------------------------------------------------------

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _split(self, Xf: np.ndarray, y: np.ndarray):
        raise NotImplementedError

    def _split_sorted(self, xs: np.ndarray, ys: np.ndarray):
        raise NotImplementedError

    def _is_pure(self, y: np.ndarray) -> bool:
        raise NotImplementedError

    # fitting ---------------------------------------------------------------

    def _fit_arrays(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.n_features_ = X.shape[1]
        self.feature_importances_ = np.zeros(self.n_features_)
        self.split_counts_ = np.zeros(self.n_features_, dtype=np.int64)
        self._rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        idx = np.arange(n)
        if n >= PRESORT_MIN_SAMPLES:
            # One stable argsort per feature for the whole fit; nodes
            # below only partition these index lists, never re-sort.
            sorted_idx = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
            self._left_buf = np.empty(n, dtype=bool)
        else:
            # Below the crossover the root argsort plus per-node index
            # bookkeeping costs more than re-sorting tiny nodes, so fall
            # back to the per-node splitter.  Both paths produce
            # bit-identical trees, so this is purely a dispatch choice.
            sorted_idx = None
        self.root_ = self._build(X, y, idx, sorted_idx, depth=0)
        if sorted_idx is not None:
            del self._left_buf
        total = self.feature_importances_.sum()
        if total > 0:
            self.feature_importances_ /= total
        # Lower the fresh node graph to its flat-array serving form.
        self.compiled_ = _compiled.compile_cart(self.root_, self.root_.value.size)

    def _build(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        sorted_idx: Optional[np.ndarray],
        depth: int,
    ) -> _Node:
        n = idx.size
        node_y = y[idx]
        node = _Node(value=self._leaf_value(node_y), n_samples=n)
        if (
            depth >= self.max_depth
            or n < self.min_samples_split
            or n < 2 * self.min_samples_leaf
            or self._is_pure(node_y)
        ):
            return node

        features = np.arange(self.n_features_)
        if self.max_features is not None and self.max_features < self.n_features_:
            features = self._rng.choice(
                self.n_features_, size=self.max_features, replace=False
            )
        best_gain, best_feat, best_thr = 0.0, -1, 0.0
        if sorted_idx is None:
            node_X = X[idx]
            for f in features:
                thr, gain = self._split(node_X[:, f], node_y)
                if thr is not None and gain > best_gain:
                    best_gain, best_feat, best_thr = gain, int(f), thr
        else:
            for f in features:
                sf = sorted_idx[f]
                thr, gain = self._split_sorted(X[sf, f], y[sf])
                if thr is not None and gain > best_gain:
                    best_gain, best_feat, best_thr = gain, int(f), thr
        if best_feat < 0:
            return node

        left = X[idx, best_feat] <= best_thr
        node.feature = best_feat
        node.threshold = best_thr
        self.feature_importances_[best_feat] += best_gain * n
        self.split_counts_[best_feat] += 1
        idx_l, idx_r = idx[left], idx[~left]
        if sorted_idx is None:
            sl = sr = None
        else:
            # Stable partition of every feature's sorted index list: mark
            # the node's left samples in a shared boolean scratch, then
            # filter each sorted list — order (hence tie order) survives.
            buf = self._left_buf
            buf[idx] = left
            take = buf[sorted_idx]
            sl = sorted_idx[take].reshape(self.n_features_, idx_l.size)
            sr = sorted_idx[~take].reshape(self.n_features_, idx_r.size)
        node.left = self._build(X, y, idx_l, sl, depth + 1)
        node.right = self._build(X, y, idx_r, sr, depth + 1)
        return node

    # prediction --------------------------------------------------------------

    def _predict_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf values of every sample, read from the compiled table."""
        self._require_fitted("root_", "compiled_")
        X = self._check_X_width(X, self.n_features_)
        return self.compiled_.leaf_values(X)[0]

    @property
    def depth_(self) -> int:
        """Realised tree depth (0 for a stump that never split)."""
        def walk(node, d):
            if node.is_leaf:
                return d
            return max(walk(node.left, d + 1), walk(node.right, d + 1))
        self._require_fitted("root_")
        return walk(self.root_, 0)


class DecisionTreeClassifier(_BaseTree):
    """Gini-impurity CART classifier.

    Predicts the majority class of the reached leaf;
    ``predict_proba`` exposes the leaf class distribution.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        y = y.astype(np.int64)
        if y.min() < 0:
            raise ValueError("class labels must be non-negative integers")
        self.n_classes_ = int(y.max()) + 1
        self._fit_arrays(X, y)
        return self

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y, minlength=self.n_classes_).astype(np.float64)
        return counts / counts.sum()

    def _split(self, Xf: np.ndarray, y: np.ndarray):
        return _best_split_gini(Xf, y, self.n_classes_, self.min_samples_leaf)

    def _split_sorted(self, xs: np.ndarray, ys: np.ndarray):
        return _best_split_gini_sorted(xs, ys, self.n_classes_, self.min_samples_leaf)

    def _is_pure(self, y: np.ndarray) -> bool:
        return np.all(y == y[0])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities from the leaf distributions."""
        return self._predict_values(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self._predict_values(X), axis=1)


class DecisionTreeRegressor(_BaseTree):
    """Variance-reduction CART regressor (leaf = mean target)."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        y = y.astype(np.float64)
        self._fit_arrays(X, y)
        return self

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        return np.array([y.mean()])

    def _split(self, Xf: np.ndarray, y: np.ndarray):
        return _best_split_mse(Xf, y, self.min_samples_leaf)

    def _split_sorted(self, xs: np.ndarray, ys: np.ndarray):
        return _best_split_mse_sorted(xs, ys, self.min_samples_leaf)

    def _is_pure(self, y: np.ndarray) -> bool:
        return np.all(y == y[0])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._predict_values(X)[:, 0]
