"""Compiled flat-array inference vs the node-graph reference path.

The contract of :mod:`repro.ml.compiled` is *bit-identical* predictions:
for every tree-based model, the fused table traversal must reproduce the
node-graph walk exactly (``np.array_equal``, not ``allclose``).  These
tests pin that across the estimator zoo, ``warm_fit`` continuations,
``Pipeline`` wrapping, every ``MODEL_REGISTRY`` / ``REGRESSOR_REGISTRY``
family, and registry save→load→predict round trips.  The node walks are
the oracle in ``tests/_ml_oracle.py``; :func:`node_path` installs them.
"""

import numpy as np
import pytest

from repro.core import (
    MODEL_REGISTRY,
    REGRESSOR_REGISTRY,
    FormatSelector,
    PerformancePredictor,
)
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml import compiled as C
from repro.ml.compiled import TreeTable
from repro.ml.preprocessing import Pipeline, StandardScaler
from repro.ml.serialize import load_estimator, save_estimator

from _ml_oracle import node_path


@pytest.fixture(scope="module")
def clf_data():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((150, 8))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int) + 2 * (X[:, 2] > 0.5)
    return X, y


@pytest.fixture(scope="module")
def reg_data():
    rng = np.random.default_rng(43)
    X = rng.standard_normal((150, 8))
    y = X[:, 0] * 2.0 - X[:, 3] + 0.1 * rng.standard_normal(150)
    return X, y


def _node_vs_compiled(model, method, X):
    """Assert the node walk and the fused traversal agree bitwise."""
    with node_path():
        ref = getattr(model, method)(X)
    out = getattr(model, method)(X)
    assert np.array_equal(ref, out), f"{type(model).__name__}.{method}"
    return ref


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_shared_arange_grows_and_is_readonly(self):
        a = C.shared_arange(10)
        assert not a.flags.writeable
        np.testing.assert_array_equal(a, np.arange(10))
        b = C.shared_arange(1000)
        assert b.size == 1000 and b[-1] == 999
        assert not b.flags.writeable

    def test_compile_trees_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            C.compile_trees([], lambda n: None, 1)

    def test_single_tree_table_shape(self, clf_data):
        X, y = clf_data
        est = DecisionTreeClassifier(max_depth=4).fit(X, y)
        t = est.compiled_
        assert isinstance(t, TreeTable)
        assert t.n_trees == 1
        assert t.value_width == est.n_classes_
        assert t.max_depth <= 4
        # Leaves self-loop; internal nodes do not.
        leaves = t.feature[0] == -1
        idx = np.arange(t.n_nodes)
        assert np.array_equal(t.left[0] == idx, leaves)
        assert np.array_equal(t.right[0] == idx, leaves)


# ---------------------------------------------------------------------------
# Estimator families (raw arrays)
# ---------------------------------------------------------------------------


class TestEstimators:
    def test_tree_classifier(self, clf_data):
        X, y = clf_data
        est = DecisionTreeClassifier(max_depth=6).fit(X, y)
        _node_vs_compiled(est, "predict_proba", X)
        _node_vs_compiled(est, "predict", X)

    def test_tree_regressor(self, reg_data):
        X, y = reg_data
        est = DecisionTreeRegressor(max_depth=6).fit(X, y)
        _node_vs_compiled(est, "predict", X)

    def test_forest_classifier(self, clf_data):
        X, y = clf_data
        est = RandomForestClassifier(n_estimators=12, max_depth=5).fit(X, y)
        assert est.compiled_.n_trees == 12
        _node_vs_compiled(est, "predict_proba", X)
        _node_vs_compiled(est, "predict", X)

    def test_forest_regressor(self, reg_data):
        X, y = reg_data
        est = RandomForestRegressor(n_estimators=12, max_depth=5).fit(X, y)
        _node_vs_compiled(est, "predict", X)

    def test_boost_classifier(self, clf_data):
        X, y = clf_data
        est = GradientBoostingClassifier(n_estimators=8, max_depth=4).fit(X, y)
        assert est.compiled_.n_trees == 8 * est.n_classes_
        _node_vs_compiled(est, "decision_function", X)
        _node_vs_compiled(est, "predict_proba", X)
        _node_vs_compiled(est, "predict", X)

    def test_boost_regressor(self, reg_data):
        X, y = reg_data
        est = GradientBoostingRegressor(n_estimators=8, max_depth=4).fit(X, y)
        assert est.compiled_.n_trees == 8
        _node_vs_compiled(est, "predict", X)

    def test_single_row_and_batch_agree(self, clf_data):
        X, y = clf_data
        est = GradientBoostingClassifier(n_estimators=6, max_depth=3).fit(X, y)
        batch = est.predict_proba(X[:16])
        rows = np.vstack([est.predict_proba(X[i : i + 1]) for i in range(16)])
        assert np.array_equal(batch, rows)

    def test_subsampled_boost(self, clf_data):
        # subsample < 1 exercises the per-round sort (no fit-wide presort).
        X, y = clf_data
        est = GradientBoostingClassifier(
            n_estimators=6, max_depth=4, subsample=0.7
        ).fit(X, y)
        _node_vs_compiled(est, "decision_function", X)


class TestWarmFit:
    def test_boost_classifier_warm(self, clf_data):
        X, y = clf_data
        est = GradientBoostingClassifier(n_estimators=4, max_depth=4).fit(X, y)
        est.warm_fit(X, y, n_rounds=3)
        assert est.compiled_.n_trees == 7 * est.n_classes_
        _node_vs_compiled(est, "decision_function", X)

    def test_boost_regressor_warm(self, reg_data):
        X, y = reg_data
        est = GradientBoostingRegressor(n_estimators=4, max_depth=4).fit(X, y)
        est.warm_fit(X, y, n_rounds=3)
        assert est.compiled_.n_trees == 7
        _node_vs_compiled(est, "predict", X)


class TestPipeline:
    def test_pipeline_wrapped(self, clf_data):
        X, y = clf_data
        pipe = Pipeline(
            [
                ("scale", StandardScaler()),
                ("model", GradientBoostingClassifier(n_estimators=5, max_depth=3)),
            ]
        ).fit(X, y)
        with node_path():
            ref = pipe.predict(X)
        assert np.array_equal(ref, pipe.predict(X))


# ---------------------------------------------------------------------------
# Registry families (the paper's model zoo, on the labeled mini-dataset)
# ---------------------------------------------------------------------------

_SMALL = {
    "decision_tree": {},
    "svm": {"max_iter": 5},
    "svr": {"n_epochs": 5},
    "mlp": {"n_epochs": 5},
    "mlp_ensemble": {"n_members": 2, "n_epochs": 5},
    "xgboost": {"n_estimators": 5},
}


class TestRegistryFamilies:
    @pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
    def test_selector_family(self, mini_dataset, model):
        ds = mini_dataset.drop_coo_best()
        sel = FormatSelector(model, feature_set="set12", **_SMALL[model])
        sel.fit(ds)
        with node_path():
            ref = sel.predict(ds)
        assert np.array_equal(ref, sel.predict(ds)), model

    @pytest.mark.parametrize("model", sorted(REGRESSOR_REGISTRY))
    def test_predictor_family(self, mini_dataset, model):
        pred = PerformancePredictor(model, feature_set="set12", **_SMALL[model])
        pred.fit(mini_dataset)
        with node_path():
            ref = pred.predict(mini_dataset)
        assert np.array_equal(ref, pred.predict(mini_dataset)), model


# ---------------------------------------------------------------------------
# Serialization round trips
# ---------------------------------------------------------------------------


class TestRoundTrips:
    def test_estimator_round_trip_keeps_table(self, clf_data, tmp_path):
        X, y = clf_data
        est = GradientBoostingClassifier(n_estimators=5, max_depth=3).fit(X, y)
        path = tmp_path / "m.npz"
        save_estimator(est, path)
        restored = load_estimator(path)
        assert isinstance(restored.compiled_, TreeTable)
        assert np.array_equal(
            est.decision_function(X), restored.decision_function(X)
        )
        _node_vs_compiled(restored, "decision_function", X)

    def test_loaded_table_used_without_recompile(
        self, clf_data, tmp_path, monkeypatch
    ):
        # An artifact carries its table; loading must not re-lower.
        X, y = clf_data
        est = GradientBoostingClassifier(n_estimators=4, max_depth=3).fit(X, y)
        path = tmp_path / "m.npz"
        save_estimator(est, path)

        def boom(*a, **kw):  # pragma: no cover - would mean recompile ran
            raise AssertionError("compile_boost called on load")

        monkeypatch.setattr(C, "compile_boost", boom)
        restored = load_estimator(path)
        assert isinstance(restored.compiled_, TreeTable)
        assert np.array_equal(est.predict(X), restored.predict(X))

    def test_model_registry_round_trip(self, mini_dataset, tmp_path):
        from repro.serve import ModelRegistry

        ds = mini_dataset.drop_coo_best()
        sel = FormatSelector("xgboost", feature_set="set12", n_estimators=5)
        sel.fit(ds)
        registry = ModelRegistry(tmp_path)
        registry.save(sel, "compiled-test", dataset=ds, promote=True)
        loaded, _ = registry.load("compiled-test")
        assert isinstance(loaded.estimator.compiled_, TreeTable)
        assert np.array_equal(sel.predict(ds), loaded.predict(ds))
        with node_path():
            ref = loaded.predict(ds)
        assert np.array_equal(ref, loaded.predict(ds))
