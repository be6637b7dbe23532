"""Frozen reference implementations of the tree-model stack.

The package predicts every tree model from its compiled
:class:`~repro.ml.compiled.TreeTable` and fits boosters from one shared
presort per round.  These are the implementations those paths
replaced, kept as bit-for-bit oracles:

* the node-graph predict walks of the six tree estimators, installed by
  :func:`node_path` (``tests/test_ml_compiled.py``);
* :class:`PerFeatureBoostTree`, the booster tree that sorts every
  feature at every node (``tests/test_ml_presort_equivalence.py``).

Do not "optimise" them — their value is being frozen.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.ml import compiled as _compiled
from repro.ml.base import check_X
from repro.ml.boosting import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    _BNode,
    _BoostTree,
)
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import _BaseTree

__all__ = ["node_path", "PerFeatureBoostTree"]


# ---------------------------------------------------------------------------
# Node-graph predict walks
# ---------------------------------------------------------------------------


def _predict_values_nodes(self, X: np.ndarray) -> np.ndarray:
    """Reference node-graph walk (trusted input)."""
    n = X.shape[0]
    out = np.empty((n, self.root_.value.size))
    # One shared root index vector and one boolean scratch reused
    # down the stack: idx[mask] copies immediately, so the scratch
    # can be overwritten by the next node.
    mask_buf = np.empty(n, dtype=bool)
    stack = [(self.root_, _compiled.shared_arange(n))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = np.less_equal(
            X[idx, node.feature], node.threshold, out=mask_buf[: idx.size]
        )
        idx_left = idx[mask]
        np.logical_not(mask, out=mask)
        stack.append((node.left, idx_left))
        stack.append((node.right, idx[mask]))
    return out


def tree_predict_values(self, X: np.ndarray) -> np.ndarray:
    """Route all samples through the tree, returning leaf values."""
    self._require_fitted("root_")
    X = check_X(X)
    if X.shape[1] != self.n_features_:
        raise ValueError(
            f"X has {X.shape[1]} features, tree was fit with {self.n_features_}"
        )
    return _predict_values_nodes(self, X)


def forest_predict_proba(self, X: np.ndarray) -> np.ndarray:
    self._require_fitted("trees_")
    X = check_X(X)
    out = np.zeros((X.shape[0], self.n_classes_))
    # Trees trained on bootstrap samples may not have seen every
    # class; pad their probability vectors to the forest's
    # width.  X is validated once here, so the member walk uses
    # the trusted node path.
    for tree in self.trees_:
        p = _predict_values_nodes(tree, X)
        out[:, : p.shape[1]] += p
    return out / len(self.trees_)


def forest_predict(self, X: np.ndarray) -> np.ndarray:
    self._require_fitted("trees_")
    X = check_X(X)
    return np.mean(
        [_predict_values_nodes(t, X)[:, 0] for t in self.trees_], axis=0
    )


def boost_predict(self, X: np.ndarray) -> np.ndarray:
    self._require_fitted("trees_")
    X = check_X(X)
    pred = np.full(X.shape[0], self.base_score_)
    for tree in self.trees_:
        pred += self.learning_rate * tree.predict(X)
    return pred


def boost_decision_function(self, X: np.ndarray) -> np.ndarray:
    """Raw per-class margins (pre-softmax)."""
    self._require_fitted("trees_")
    X = check_X(X)
    margins = np.zeros((X.shape[0], self.n_classes_))
    for round_trees in self.trees_:
        for k, tree in enumerate(round_trees):
            margins[:, k] += self.learning_rate * tree.predict(X)
    return margins


#: (class, method, node walk): every tree estimator's predict entry
#: point.  ``DecisionTree*`` predict through ``_predict_values``; the
#: classifiers' ``predict`` and ``predict_proba`` call the patched ones.
NODE_WALKS = (
    (_BaseTree, "_predict_values", tree_predict_values),
    (RandomForestClassifier, "predict_proba", forest_predict_proba),
    (RandomForestRegressor, "predict", forest_predict),
    (GradientBoostingRegressor, "predict", boost_predict),
    (GradientBoostingClassifier, "decision_function", boost_decision_function),
)


@contextmanager
def node_path():
    """Predict every tree model by its node-graph walk inside the block.

    The walks replace the estimators' methods, so every caller —
    ``FormatSelector``, ``Pipeline``, registry-loaded models — routes
    through them.
    """
    with pytest.MonkeyPatch.context() as patch:
        for cls, name, walk in NODE_WALKS:
            patch.setattr(cls, name, walk)
        yield


# ---------------------------------------------------------------------------
# Per-node sorting booster tree
# ---------------------------------------------------------------------------


class PerFeatureBoostTree(_BoostTree):
    """A ``_BoostTree`` whose every node argsorts each feature of its
    own rows; it ignores the round's shared sort."""

    def fit(self, X, g, h, presorted=None) -> "PerFeatureBoostTree":
        self.n_features = X.shape[1]
        self.gain_by_feature = np.zeros(self.n_features)
        self.splits_by_feature = np.zeros(self.n_features, dtype=np.int64)
        self.root = self._build(X, g, h, np.arange(X.shape[0]), depth=0)
        return self

    def _build(self, X, g, h, idx, depth) -> _BNode:
        gs, hs = g[idx], h[idx]
        G, H = float(gs.sum()), float(hs.sum())
        node = _BNode(weight=self._leaf_weight(G, H))
        if depth >= self.max_depth or idx.size < 2 or H < 2 * self.min_child_weight:
            return node

        lam = self.reg_lambda
        parent_score = G * G / (H + lam)
        best_gain, best_feat, best_thr = 0.0, -1, 0.0
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
        node.left = self._build(X, g, h, idx_l, depth + 1)
        node.right = self._build(X, g, h, idx_r, depth + 1)
        return node
