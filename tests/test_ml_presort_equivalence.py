"""Presorted-feature training must be bit-identical to per-node sorting.

``presort=True`` (one stable argsort per feature at the root, stable
partition down the tree) and ``presort=False`` (the historical stable
argsort at every node) see the same value/target sequences at every
node, so splits, thresholds, importances and predictions must match
exactly — ``np.array_equal``, not ``allclose``.
"""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(250, 9))
    X[:, 3] = np.round(X[:, 3])          # heavy ties: stresses stable order
    X[:, 6] = (X[:, 6] > 0).astype(float)  # binary feature: even heavier ties
    y_clf = rng.integers(0, 4, size=250)
    y_reg = X[:, 0] * 2 + np.sin(X[:, 1]) + rng.normal(scale=0.1, size=250)
    return X, y_clf, y_reg


@pytest.mark.parametrize("max_depth", [2, 16])
@pytest.mark.parametrize("max_features", [None, 3])
def test_tree_classifier_identical(data, max_depth, max_features):
    X, y, _ = data
    kw = dict(max_depth=max_depth, max_features=max_features, seed=7)
    a = DecisionTreeClassifier(presort=True, **kw).fit(X, y)
    b = DecisionTreeClassifier(presort=False, **kw).fit(X, y)
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
    assert np.array_equal(a.feature_importances_, b.feature_importances_)
    assert np.array_equal(a.split_counts_, b.split_counts_)
    assert a.depth_ == b.depth_


@pytest.mark.parametrize("min_samples_leaf", [1, 5])
def test_tree_regressor_identical(data, min_samples_leaf):
    X, _, y = data
    kw = dict(max_depth=16, min_samples_leaf=min_samples_leaf, seed=7)
    a = DecisionTreeRegressor(presort=True, **kw).fit(X, y)
    b = DecisionTreeRegressor(presort=False, **kw).fit(X, y)
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
    return (cls(presort=True, **kw).fit(X, y),
            cls(presort=False, **kw).fit(X, y))


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


def test_presort_is_a_params_knob(data):
    """presort participates in get_params, so clones inherit it."""
    X, y, _ = data
    model = DecisionTreeClassifier(presort=False)
    params = model.get_params()
    assert params["presort"] is False
    clone = DecisionTreeClassifier(**params)
    assert clone.get_params()["presort"] is False
    booster = GradientBoostingClassifier(n_estimators=2, presort=False)
    assert booster.get_params()["presort"] is False


def test_fitted_trees_are_picklable(data):
    import pickle

    X, y, _ = data
    model = GradientBoostingClassifier(n_estimators=3, max_depth=3).fit(X, y)
    clone = pickle.loads(pickle.dumps(model))
    assert np.array_equal(clone.predict(X), model.predict(X))
    tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
    clone = pickle.loads(pickle.dumps(tree))
    assert np.array_equal(clone.predict(X), tree.predict(X))
