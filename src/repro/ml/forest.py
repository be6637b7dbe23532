"""Random forests (bagged CART trees with feature subsampling).

The paper evaluates single decision trees and boosted ensembles
(XGBoost); random forests are the third classic tree ensemble and a
natural ablation point between them — variance reduction by bagging
instead of bias reduction by boosting.  Included for the model-family
ablation bench and as a library feature.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from . import compiled as _compiled
from .base import BaseEstimator, check_X_y
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = ["RandomForestClassifier", "RandomForestRegressor"]


class _BaseForest(BaseEstimator):
    """Shared bagging machinery."""

    _tree_cls = None  # set by subclasses

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 16,
        min_samples_leaf: int = 1,
        max_features: Optional[str] = "sqrt",
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

    def _n_features_per_split(self, d: int) -> Optional[int]:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if self.max_features == "log2":
            return max(1, int(np.log2(d)))
        if isinstance(self.max_features, (int, np.integer)):
            return max(1, min(int(self.max_features), d))
        raise ValueError(f"bad max_features: {self.max_features!r}")

    def _fit_forest(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        rng = np.random.default_rng(self.seed)
        n, d = X.shape
        k = self._n_features_per_split(d)
        self.trees_: List = []
        importances = np.zeros(d)
        for t in range(self.n_estimators):
            idx = rng.integers(0, n, n) if self.bootstrap else np.arange(n)
            tree = self._tree_cls(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=k,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[idx], y[idx])
            self.trees_.append(tree)
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        # Fuse all member trees into one flat-array table so a predict
        # traverses the whole forest in O(max_depth) vectorised steps.
        self.compiled_ = _compiled.compile_cart_forest(
            self.trees_, self._value_width()
        )

    def _value_width(self) -> int:
        raise NotImplementedError


class RandomForestClassifier(_BaseForest):
    """Probability-averaging bagged CART classifier."""

    _tree_cls = DecisionTreeClassifier

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y = check_X_y(X, y)
        y = y.astype(np.int64)
        if y.min() < 0:
            raise ValueError("class labels must be non-negative integers")
        self.n_classes_ = int(y.max()) + 1
        self._fit_forest(X, y)
        return self

    def _value_width(self) -> int:
        return self.n_classes_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted("trees_", "compiled_")
        X = self._check_X_width(X, self.feature_importances_.size)
        out = np.zeros((X.shape[0], self.n_classes_))
        # One fused traversal of every member; the table zero-pads
        # members that saw fewer classes, so accumulating the full
        # width adds exact zeros — bit-identical to a per-member loop.
        probs = self.compiled_.leaf_values(X)
        for t in range(probs.shape[0]):
            out += probs[t]
        return out / len(self.trees_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


class RandomForestRegressor(_BaseForest):
    """Prediction-averaging bagged CART regressor."""

    _tree_cls = DecisionTreeRegressor

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y = check_X_y(X, y)
        self._fit_forest(X, y.astype(np.float64))
        return self

    def _value_width(self) -> int:
        return 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted("trees_", "compiled_")
        X = self._check_X_width(X, self.feature_importances_.size)
        # Fused traversal gives the (n_trees, n) prediction rows a
        # per-member loop stacks, so the mean is bit-identical.
        return np.mean(self.compiled_.leaf_scalars(X), axis=0)
