"""Edge-case tests across the ML stack."""

import numpy as np
import pytest

from repro.ml import (
    SVC,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    GridSearchCV,
    KFold,
    MLPClassifier,
    Pipeline,
    RandomForestClassifier,
    RandomForestRegressor,
    StandardScaler,
    accuracy_score,
    clone,
    cross_val_score,
)
from repro.ml.base import NotFittedError


class TestDegenerateData:
    def test_tree_on_constant_features(self, rng):
        X = np.ones((20, 3))
        y = rng.integers(0, 2, 20)
        tree = DecisionTreeClassifier().fit(X, y)
        # No split possible; predicts the majority class everywhere.
        assert np.all(tree.predict(X) == np.bincount(y).argmax())

    def test_boosting_on_constant_target(self, rng):
        X = rng.standard_normal((30, 2))
        clf = GradientBoostingClassifier(n_estimators=3).fit(X, np.ones(30, int))
        assert np.all(clf.predict(X) == 1)

    def test_mlp_single_class(self, rng):
        X = rng.standard_normal((20, 2))
        clf = MLPClassifier(hidden_layer_sizes=(4,), n_epochs=3).fit(
            X, np.zeros(20, int)
        )
        assert np.all(clf.predict(X) == 0)

    def test_tree_regressor_two_points(self):
        tree = DecisionTreeRegressor().fit(
            np.array([[0.0], [1.0]]), np.array([1.0, 3.0])
        )
        assert tree.predict(np.array([[0.0]]))[0] == pytest.approx(1.0)
        assert tree.predict(np.array([[1.0]]))[0] == pytest.approx(3.0)

    def test_missing_class_in_range(self, rng):
        """Labels {0, 2} (no 1) still work everywhere."""
        X = rng.standard_normal((60, 2))
        y = np.where(X[:, 0] > 0, 2, 0)
        for model in (
            DecisionTreeClassifier(max_depth=3),
            GradientBoostingClassifier(n_estimators=5),
            MLPClassifier(hidden_layer_sizes=(16,), n_epochs=60),
        ):
            model.fit(X, y)
            pred = model.predict(X)
            assert set(np.unique(pred)) <= {0, 1, 2}
            assert accuracy_score(y, pred) > 0.8


TREE_MODELS = {
    "tree_clf": lambda: DecisionTreeClassifier(max_depth=4),
    "tree_reg": lambda: DecisionTreeRegressor(max_depth=4),
    "forest_clf": lambda: RandomForestClassifier(n_estimators=4, max_depth=4),
    "forest_reg": lambda: RandomForestRegressor(n_estimators=4, max_depth=4),
    "boost_clf": lambda: GradientBoostingClassifier(n_estimators=3, max_depth=3),
    "boost_reg": lambda: GradientBoostingRegressor(n_estimators=3, max_depth=3),
}


@pytest.fixture(scope="module")
def tree_models():
    """The six tree estimators fitted on 6 features (3 classes)."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 6))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5)
    return {name: make().fit(X, y if name.endswith("clf") else X[:, 2])
            for name, make in TREE_MODELS.items()}


def _predict_methods(model):
    return [m for m in ("predict", "predict_proba", "decision_function")
            if hasattr(model, m)]


class TestTreeModelInputs:
    """Every tree estimator predicts from its compiled table; inputs
    that do not fit the table fail with named errors."""

    @pytest.mark.parametrize("width", [4, 12], ids=["narrower", "wider"])
    @pytest.mark.parametrize("name", sorted(TREE_MODELS))
    def test_feature_count_mismatch_raises(self, tree_models, name, width):
        model = tree_models[name]
        X = np.ones((5, width))
        for method in _predict_methods(model):
            with pytest.raises(ValueError, match=f"X has {width} features"):
                getattr(model, method)(X)

    @pytest.mark.parametrize("name", sorted(TREE_MODELS))
    def test_zero_rows_give_empty_results(self, tree_models, name):
        model = tree_models[name]
        for method in _predict_methods(model):
            out = getattr(model, method)(np.empty((0, 6)))
            expected = (0,) if method == "predict" else (0, model.n_classes_)
            assert out.shape == expected, method

    @pytest.mark.parametrize("name", sorted(TREE_MODELS))
    def test_missing_table_is_not_fitted(self, tree_models, name):
        model = clone(tree_models[name])
        model.set_state({k: v for k, v in tree_models[name].get_state().items()
                         if k != "compiled_"})
        for method in _predict_methods(model):
            with pytest.raises(NotFittedError, match="compiled_"):
                getattr(model, method)(np.zeros((2, 6)))


class TestCloneSemantics:
    def test_clone_pipeline_deep(self):
        p = Pipeline([("s", StandardScaler()), ("t", DecisionTreeClassifier())])
        q = clone(p)
        assert q.steps[0][1] is not p.steps[0][1]

    def test_clone_preserves_every_param(self):
        clf = GradientBoostingClassifier(
            n_estimators=7, learning_rate=0.3, max_depth=2, reg_lambda=2.5,
            gamma=0.1, min_child_weight=3.0, subsample=0.7, seed=9,
        )
        twin = clone(clf)
        assert twin.get_params() == clf.get_params()


class TestCrossValidationCorners:
    def test_cv_more_folds_than_classes_ok(self, rng):
        X = rng.standard_normal((50, 2))
        y = (X[:, 0] > 0).astype(int)
        scores = cross_val_score(DecisionTreeClassifier(max_depth=2), X, y, cv=10)
        assert scores.shape == (10,)

    def test_gridsearch_single_candidate(self, rng):
        X = rng.standard_normal((30, 2))
        y = (X[:, 0] > 0).astype(int)
        gs = GridSearchCV(DecisionTreeClassifier(), {"max_depth": [3]}, cv=3)
        gs.fit(X, y)
        assert gs.best_params_ == {"max_depth": 3}

    def test_kfold_seed_changes_folds(self):
        a = [te.tolist() for _, te in KFold(3, seed=0).split(30)]
        b = [te.tolist() for _, te in KFold(3, seed=1).split(30)]
        assert a != b

    def test_kfold_seed_reproducible(self):
        a = [te.tolist() for _, te in KFold(3, seed=5).split(30)]
        b = [te.tolist() for _, te in KFold(3, seed=5).split(30)]
        assert a == b


class TestSVCNumerics:
    def test_duplicate_points_do_not_crash(self, rng):
        X = np.repeat(rng.standard_normal((5, 2)), 6, axis=0)
        y = np.repeat(rng.integers(0, 2, 5), 6)
        if len(np.unique(y)) < 2:
            y[:6] = 1 - y[0]
        clf = SVC(C=1.0, gamma=0.5, max_iter=10).fit(X, y)
        assert clf.predict(X).shape == y.shape

    def test_tiny_dataset(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1])
        clf = SVC(C=10.0, gamma=1.0).fit(X, y)
        assert accuracy_score(y, clf.predict(X)) == 1.0
