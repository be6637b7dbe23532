"""Presorted-feature training must be bit-identical to per-node sorting.

Presorted fits (one stable argsort per feature at the root — per
boosting round for the boosters — and a stable partition down the tree)
and per-node sorting (the historical stable argsort at every node) see
the same value/target sequences at every node, so splits, thresholds,
importances and predictions must match exactly — ``np.array_equal``,
not ``allclose``.

The per-node references: CART's own small-fit path, forced by raising
``repro.ml.tree.PRESORT_MIN_SAMPLES`` above the sample count, and the
booster tree of ``tests/_ml_oracle.py``, installed in place of
``repro.ml.boosting._BoostTree``.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
)
from repro.ml import boosting, tree

from _ml_oracle import PerFeatureBoostTree


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(250, 9))
    X[:, 3] = np.round(X[:, 3])          # heavy ties: stresses stable order
    X[:, 6] = (X[:, 6] > 0).astype(float)  # binary feature: even heavier ties
    y_clf = rng.integers(0, 4, size=250)
    y_reg = X[:, 0] * 2 + np.sin(X[:, 1]) + rng.normal(scale=0.1, size=250)
    return X, y_clf, y_reg


@contextmanager
def per_node():
    """Fits inside the block sort at every node: CART takes its small-fit
    path at any size, boosters grow the oracle's per-node trees."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree, "PRESORT_MIN_SAMPLES", np.inf)
        patch.setattr(boosting, "_BoostTree", PerFeatureBoostTree)
        yield


@pytest.mark.parametrize("max_depth", [2, 16])
@pytest.mark.parametrize("max_features", [None, 3])
def test_tree_classifier_identical(data, max_depth, max_features):
    X, y, _ = data
    kw = dict(max_depth=max_depth, max_features=max_features, seed=7)
    a = DecisionTreeClassifier(**kw).fit(X, y)
    with per_node():
        b = DecisionTreeClassifier(**kw).fit(X, y)
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
    assert np.array_equal(a.feature_importances_, b.feature_importances_)
    assert np.array_equal(a.split_counts_, b.split_counts_)
    assert a.depth_ == b.depth_


@pytest.mark.parametrize("min_samples_leaf", [1, 5])
def test_tree_regressor_identical(data, min_samples_leaf):
    X, _, y = data
    kw = dict(max_depth=16, min_samples_leaf=min_samples_leaf, seed=7)
    a = DecisionTreeRegressor(**kw).fit(X, y)
    with per_node():
        b = DecisionTreeRegressor(**kw).fit(X, y)
    assert np.array_equal(a.predict(X), b.predict(X))
    assert np.array_equal(a.feature_importances_, b.feature_importances_)


def assert_same_booster(a, b, X):
    """Two boosters fitted alike agree bit for bit: predictions,
    importances, every tree's gain and split counts, and the fused
    inference table."""
    if hasattr(a, "decision_function"):
        assert np.array_equal(a.decision_function(X), b.decision_function(X))
    assert np.array_equal(a.predict(X), b.predict(X))
    assert np.array_equal(a.f_scores_, b.f_scores_)
    assert np.array_equal(a.feature_importances_, b.feature_importances_)
    ta, tb = a._flat_trees(), b._flat_trees()
    assert len(ta) == len(tb)
    for s, t in zip(ta, tb):
        assert np.array_equal(s.gain_by_feature, t.gain_by_feature)
        assert np.array_equal(s.splits_by_feature, t.splits_by_feature)
    for name in ("feature", "threshold", "left", "right", "values"):
        assert np.array_equal(getattr(a.compiled_, name),
                              getattr(b.compiled_, name)), name


def fit_pair(cls, X, y, **kw):
    a = cls(**kw).fit(X, y)
    with per_node():
        b = cls(**kw).fit(X, y)
    return a, b


@pytest.mark.parametrize("subsample", [1.0, 0.9, 0.6])
def test_boosting_classifier_identical(data, subsample):
    X, y, _ = data
    kw = dict(n_estimators=10, max_depth=4, subsample=subsample, seed=3)
    assert_same_booster(*fit_pair(GradientBoostingClassifier, X, y, **kw), X)


@pytest.mark.parametrize("subsample", [1.0, 0.9, 0.6])
def test_boosting_regressor_identical(data, subsample):
    X, _, y = data
    kw = dict(n_estimators=10, max_depth=4, subsample=subsample, seed=3)
    assert_same_booster(*fit_pair(GradientBoostingRegressor, X, y, **kw), X)


@pytest.mark.parametrize("subsample", [1.0, 0.9])
@pytest.mark.parametrize("cls", [GradientBoostingClassifier,
                                 GradientBoostingRegressor])
def test_boosting_warm_fit_identical(data, cls, subsample):
    X, y_clf, y_reg = data
    y = y_clf if cls is GradientBoostingClassifier else y_reg
    kw = dict(n_estimators=6, max_depth=4, subsample=subsample, seed=5)
    a, b = fit_pair(cls, X[:150], y[:150], **kw)
    a.warm_fit(X[100:], y[100:], n_rounds=4)
    with per_node():
        b.warm_fit(X[100:], y[100:], n_rounds=4)
    assert_same_booster(a, b, X)


def test_boosting_constant_feature_identical(data):
    X, y, _ = data
    X = X.copy()
    X[:, 2] = 1.5        # never splittable: no valid cell in that row
    kw = dict(n_estimators=8, max_depth=4, subsample=0.9, seed=1)
    a, b = fit_pair(GradientBoostingClassifier, X, y, **kw)
    assert_same_booster(a, b, X)
    assert a.f_scores_[2] == 0


def _searched_without_valid_cell(model, X, mcw):
    """Leaves of a squared-error booster (h = 1, so a node's hessian sum
    is its row count) that were searched for a split but had no valid
    cell: no feature has a boundary between distinct values with at
    least ``mcw`` rows on each side."""
    count = 0
    for tree in model.trees_:
        stack = [(tree.root, np.arange(X.shape[0]), 0)]
        while stack:
            node, rows, depth = stack.pop()
            if not node.is_leaf:
                left = X[rows, node.feature] <= node.threshold
                stack.append((node.left, rows[left], depth + 1))
                stack.append((node.right, rows[~left], depth + 1))
                continue
            if depth >= model.max_depth or rows.size < 2 * mcw:
                continue
            cols = np.sort(X[rows], axis=0)
            pos = np.arange(1, rows.size)
            ok = (cols[1:] != cols[:-1]) & (pos >= mcw)[:, None] \
                & (rows.size - pos >= mcw)[:, None]
            count += not ok.any()
    return count


def test_boosting_nodes_without_valid_cell_identical(data):
    X, y_clf, y_reg = data
    X = np.round(X * 0.7)    # a few values per feature: ties off-centre
    mcw = 30.0
    kw = dict(n_estimators=8, max_depth=5, min_child_weight=mcw, seed=2)
    a, b = fit_pair(GradientBoostingRegressor, X, y_reg, **kw)
    assert _searched_without_valid_cell(a, X, mcw) > 0
    assert_same_booster(a, b, X)
    kw["min_child_weight"] = 8.0   # softmax hessians are at most 1/4
    assert_same_booster(
        *fit_pair(GradientBoostingClassifier, X, y_clf, **kw), X)


def test_boosting_many_classes_identical(data):
    X, _, _ = data
    y = np.random.default_rng(9).integers(0, 13, size=X.shape[0])
    kw = dict(n_estimators=6, max_depth=4, subsample=0.9, seed=4)
    a, b = fit_pair(GradientBoostingClassifier, X, y, **kw)
    assert a.n_classes_ == 13
    assert_same_booster(a, b, X)


class TestPresortDispatch:
    def test_small_fit_matches_presorted(self):
        rng = np.random.default_rng(0)
        for n in (tree.PRESORT_MIN_SAMPLES - 1, tree.PRESORT_MIN_SAMPLES + 1):
            X = rng.standard_normal((n, 6))
            y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
            a = DecisionTreeClassifier(max_depth=8).fit(X, y)
            with per_node():
                b = DecisionTreeClassifier(max_depth=8).fit(X, y)
            np.testing.assert_array_equal(a.predict(X), b.predict(X))
            np.testing.assert_array_equal(
                a.feature_importances_, b.feature_importances_
            )


def test_fitted_trees_are_picklable(data):
    import pickle

    X, y, _ = data
    model = GradientBoostingClassifier(n_estimators=3, max_depth=3).fit(X, y)
    clone = pickle.loads(pickle.dumps(model))
    assert np.array_equal(clone.predict(X), model.predict(X))
    tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
    clone = pickle.loads(pickle.dumps(tree))
    assert np.array_equal(clone.predict(X), tree.predict(X))
