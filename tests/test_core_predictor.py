"""Tests for the performance predictor (time regression)."""

import numpy as np
import pytest

from repro.core import PerformancePredictor


@pytest.fixture(scope="module")
def split(mini_dataset):
    ds = mini_dataset.drop_coo_best()
    rng = np.random.default_rng(1)
    idx = rng.permutation(len(ds))
    k = len(ds) // 5
    return ds.subset(idx[k:]), ds.subset(idx[:k])


class TestJointMode:
    def test_predict_shape_and_positivity(self, split):
        train, test = split
        pp = PerformancePredictor("xgboost", feature_set="set12", mode="joint")
        pp.fit(train)
        times = pp.predict(test)
        assert times.shape == (len(test), len(train.formats))
        assert np.all(times > 0)

    def test_rme_beats_constant_predictor(self, split):
        train, test = split
        pp = PerformancePredictor("xgboost", feature_set="set123", mode="joint")
        pp.fit(train)
        rme = pp.rme(test)
        # A constant (geometric-mean) predictor is dismal on 6 decades.
        const = np.exp(np.mean(np.log(train.times)))
        baseline = np.mean(np.abs(const - test.times) / test.times)
        assert rme < 0.5 * baseline
        assert rme < 0.6

    def test_predict_best_in_range(self, split):
        train, test = split
        pp = PerformancePredictor("decision_tree", mode="joint").fit(train)
        best = pp.predict_best(test)
        assert best.shape == (len(test),)
        assert best.min() >= 0 and best.max() < len(train.formats)


class TestPerFormatMode:
    def test_per_format_rme_keys(self, split):
        train, test = split
        pp = PerformancePredictor("xgboost", mode="per_format").fit(train)
        rmes = pp.rme_per_format(test)
        assert set(rmes) == set(train.formats)
        assert all(v >= 0 for v in rmes.values())

    def test_modes_roughly_agree(self, split):
        train, test = split
        joint = PerformancePredictor("xgboost", mode="joint").fit(train)
        per = PerformancePredictor("xgboost", mode="per_format").fit(train)
        assert abs(joint.rme(test) - per.rme(test)) < 0.4


class TestConfig:
    def test_mlp_ensemble_is_default(self):
        assert PerformancePredictor().model_name == "mlp_ensemble"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            PerformancePredictor("cnn")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            PerformancePredictor("xgboost", mode="both")

    def test_custom_estimator(self, split):
        from repro.ml import DecisionTreeRegressor

        train, test = split
        pp = PerformancePredictor(DecisionTreeRegressor(max_depth=8), mode="joint")
        pp.fit(train)
        assert pp.rme(test) < 1.5

    def test_kwargs_forwarded(self):
        pp = PerformancePredictor("xgboost", n_estimators=11)
        pp_model = pp._factory()
        assert pp_model.n_estimators == 11


class TestVectorInput:
    def test_1d_vector_equals_one_row_batch(self, split):
        train, test = split
        pp = PerformancePredictor(
            "decision_tree", feature_set="set12", mode="joint"
        ).fit(train)
        X = test.X("set12")
        for i in range(min(3, X.shape[0])):
            one_d = pp.predict(X[i])
            batch = pp.predict(X[i][None, :])
            np.testing.assert_array_equal(one_d, batch)
            assert one_d.shape == (1, len(train.formats))

    def test_predict_best_on_vector(self, split):
        train, test = split
        pp = PerformancePredictor(
            "decision_tree", feature_set="set12", mode="per_format"
        ).fit(train)
        vec = test.X("set12")[0]
        best = pp.predict_best(vec)
        assert best.shape == (1,)
        assert 0 <= best[0] < len(train.formats)
