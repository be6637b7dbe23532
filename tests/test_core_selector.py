"""Tests for the direct format selector."""

import numpy as np
import pytest

from repro.core import MODEL_REGISTRY, FormatSelector, tuned_selector
from repro.ml import KFold


@pytest.fixture(scope="module")
def split(mini_dataset):
    ds = mini_dataset.drop_coo_best()
    rng = np.random.default_rng(0)
    idx = rng.permutation(len(ds))
    k = len(ds) // 5
    return ds.subset(idx[k:]), ds.subset(idx[:k])


class TestFormatSelector:
    @pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
    def test_every_model_beats_chance(self, mini_dataset, model):
        # Averaged over 3 folds: a single ~7-matrix holdout of the mini
        # corpus is small enough for any model to flunk by bad luck.
        ds = mini_dataset.drop_coo_best()
        kwargs = {"n_epochs": 40} if "mlp" in model else {}
        if model == "mlp_ensemble":
            kwargs["n_members"] = 2
        accs = []
        for tr, te in KFold(3, seed=0).split(len(ds)):
            sel = FormatSelector(model, feature_set="set12", **kwargs)
            sel.fit(ds.subset(tr))
            accs.append(sel.score(ds.subset(te)))
        acc = float(np.mean(accs))
        n_classes = len(np.unique(ds.labels))
        assert acc > 1.2 / n_classes, f"{model} accuracy {acc} at chance level"

    def test_predict_formats_names(self, split):
        train, test = split
        sel = FormatSelector("decision_tree").fit(train)
        names = sel.predict_formats(test)
        assert all(n in train.formats for n in names)

    def test_save_load_at_the_exact_path(self, split, tmp_path):
        train, test = split
        sel = FormatSelector("decision_tree").fit(train)
        path = tmp_path / "sel.pkl"         # not an .npz suffix
        sel.save(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sel.pkl"]
        restored = FormatSelector.load(path)
        np.testing.assert_array_equal(
            restored.predict_formats(test), sel.predict_formats(test)
        )

    def test_fit_on_raw_arrays(self, rng):
        X = rng.standard_normal((80, 4))
        y = (X[:, 0] > 0).astype(int)
        sel = FormatSelector("decision_tree")
        sel.fit(X, y)
        assert sel.score(X, y) > 0.9
        with pytest.raises(RuntimeError, match="format names unknown"):
            sel.predict_formats(X)

    def test_raw_fit_requires_y(self, rng):
        with pytest.raises(ValueError, match="y is required"):
            FormatSelector("decision_tree").fit(rng.standard_normal((5, 3)))

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            FormatSelector("cnn")

    def test_unknown_feature_set_rejected(self):
        with pytest.raises(ValueError, match="feature set"):
            FormatSelector("xgboost", feature_set="set99")

    def test_custom_estimator_instance(self, split):
        from repro.ml import DecisionTreeClassifier

        train, test = split
        sel = FormatSelector(DecisionTreeClassifier(max_depth=4))
        sel.fit(train)
        assert 0.0 <= sel.score(test) <= 1.0

    def test_model_kwargs_forwarded(self):
        sel = FormatSelector("xgboost", n_estimators=7)
        assert sel.estimator.n_estimators == 7

    def test_xgboost_among_best_models(self, split):
        """The paper's headline: XGBoost is (near) the best model."""
        train, test = split
        accs = {}
        for model in ("decision_tree", "xgboost"):
            sel = FormatSelector(model, feature_set="set12").fit(train)
            accs[model] = sel.score(test)
        assert accs["xgboost"] >= accs["decision_tree"] - 0.08


class TestTunedSelector:
    def test_tunes_xgboost(self, split):
        train, test = split
        sel = tuned_selector(
            "xgboost",
            train,
            feature_set="set12",
            cv=3,
            grid={"n_estimators": [20, 60], "max_depth": [3]},
        )
        assert sel.tuned_params_["max_depth"] == 3
        assert sel.tuned_params_["n_estimators"] in (20, 60)
        assert 0.3 <= sel.score(test) <= 1.0

    def test_tunes_pipeline_model(self, split):
        train, test = split
        sel = tuned_selector(
            "svm",
            train,
            feature_set="set12",
            cv=3,
            grid={"C": [10.0, 1000.0], "gamma": [0.1]},
        )
        assert sel.tuned_params_["gamma"] == 0.1
        assert 0.0 <= sel.score(test) <= 1.0

    def test_no_grid_falls_back_to_defaults(self, split):
        train, _ = split
        sel = tuned_selector("decision_tree", train, feature_set="set1", cv=3)
        assert not hasattr(sel, "tuned_params_")


class TestVectorInput:
    def test_1d_vector_equals_one_row_batch(self, split):
        train, test = split
        sel = FormatSelector("decision_tree", feature_set="set12").fit(train)
        X = test.X("set12")
        for i in range(min(3, X.shape[0])):
            one_d = sel.predict(X[i])
            batch = sel.predict(X[i][None, :])
            np.testing.assert_array_equal(one_d, batch)
            assert one_d.shape == (1,)
            assert sel.predict_formats(X[i])[0] == sel.predict_formats(
                X[i][None, :]
            )[0]

    def test_list_vector_accepted(self, split):
        train, _ = split
        sel = FormatSelector("decision_tree", feature_set="set12").fit(train)
        vec = train.X("set12")[0]
        np.testing.assert_array_equal(
            sel.predict(list(vec)), sel.predict(vec[None, :])
        )
