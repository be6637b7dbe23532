"""Tests for the confidence-gated hybrid selector (SMAT-style)."""

import numpy as np
import pytest

from repro.core import ConfidenceSelector, FormatSelector
from repro.gpu import KEPLER_K40C, SpMVExecutor


@pytest.fixture(scope="module")
def setting(mini_dataset, mini_corpus):
    ds = mini_dataset.drop_coo_best()
    matrices = {e.name: e.build() for e in mini_corpus if e.name in set(ds.names)}
    executor = SpMVExecutor(KEPLER_K40C, "single", seed=0)
    base = FormatSelector("xgboost", feature_set="set12")
    return ds, matrices, executor, base


class TestDecide:
    def test_confident_prediction_skips_probe(self, setting):
        ds, matrices, executor, base = setting
        cs = ConfidenceSelector(base, executor, threshold=0.0)
        cs.fit(ds)
        X = ds.X("set12")
        d = cs.decide(matrices[ds.names[0]], X[0])
        assert not d.probed
        assert d.probe_seconds == 0.0
        assert d.fmt in ds.formats

    def test_threshold_one_always_probes(self, setting):
        ds, matrices, executor, base = setting
        cs = ConfidenceSelector(base, executor, threshold=1.0, top_k=2)
        cs.fit(ds)
        X = ds.X("set12")
        d = cs.decide(matrices[ds.names[0]], X[0])
        assert d.probed
        assert d.probe_seconds > 0

    def test_probe_decision_is_measured_best_of_topk(self, setting):
        ds, matrices, executor, base = setting
        cs = ConfidenceSelector(base, executor, threshold=1.0, top_k=len(ds.formats))
        cs.fit(ds)
        X = ds.X("set12")
        name = ds.names[1]
        d = cs.decide(matrices[name], X[1])
        # Probing all formats must recover the measured best format
        # (same executor noise seed => same fixed effects; jitter small).
        times = {
            f: s.seconds
            for f, s in executor.benchmark_all(matrices[name], formats=ds.formats).items()
            if s is not None
        }
        assert d.fmt == min(times, key=times.get)

    def test_fallback_analyses_once(self, setting, monkeypatch):
        """The fallback probe analyses the matrix once and sums the
        per-format loop's timings bit for bit."""
        from repro import analysis
        from repro.gpu import SimulationError

        ds, matrices, _, base = setting
        cs = ConfidenceSelector(
            base, SpMVExecutor(KEPLER_K40C, "single", seed=9),
            threshold=1.0, top_k=3,
        ).fit(ds)
        X = ds.X("set12")
        matrix = matrices[ds.names[2]]
        real, calls = analysis.analyze_matrix, []
        monkeypatch.setattr(
            analysis, "analyze_matrix", lambda m: calls.append(m) or real(m)
        )
        d = cs.decide(matrix, X[2])
        assert d.probed and len(calls) == 1
        proba = cs._proba(X[2][None, :])[0]
        candidates = [ds.formats[i] for i in np.argsort(proba)[::-1][:3]]
        ref = SpMVExecutor(KEPLER_K40C, "single", seed=9)
        times, spent = {}, 0.0
        for fmt in candidates:
            try:
                times[fmt] = ref.benchmark(matrix, fmt, reps=cs.probe_reps).seconds
            except SimulationError:
                continue
            spent += times[fmt] * cs.probe_reps
        assert d.fmt == min(times, key=times.get)
        assert np.float64(d.probe_seconds).tobytes() == np.float64(spent).tobytes()


class TestEvaluate:
    def test_probing_more_cannot_hurt_much(self, setting):
        ds, matrices, executor, base = setting
        never = ConfidenceSelector(base, executor, threshold=0.0).fit(ds)
        always = ConfidenceSelector(
            FormatSelector("xgboost", feature_set="set12"),
            executor,
            threshold=1.0,
            top_k=3,
        ).fit(ds)
        r_never = never.evaluate(ds, matrices)
        r_always = always.evaluate(ds, matrices)
        assert r_never["probe_rate"] == 0.0
        assert r_always["probe_rate"] == 1.0
        # Probing the model's top-3 candidates recovers most model errors.
        # (Probe measurements carry their own jitter, so near-ties can
        # still land on the "wrong" label — allow a small budget.)
        assert r_always["accuracy"] >= r_never["accuracy"] - 0.1

    def test_metrics_ranges(self, setting):
        ds, matrices, executor, base = setting
        cs = ConfidenceSelector(base, executor, threshold=0.7).fit(ds)
        r = cs.evaluate(ds, matrices)
        assert 0.0 <= r["accuracy"] <= 1.0
        assert 0.0 <= r["probe_rate"] <= 1.0
        assert r["probe_seconds_total"] >= 0.0


class TestValidation:
    def test_bad_threshold(self, setting):
        _, _, executor, base = setting
        with pytest.raises(ValueError, match="threshold"):
            ConfidenceSelector(base, executor, threshold=1.5)

    def test_bad_top_k(self, setting):
        _, _, executor, base = setting
        with pytest.raises(ValueError, match="top_k"):
            ConfidenceSelector(base, executor, top_k=0)

    def test_svm_without_proba_rejected(self, setting):
        ds, matrices, executor, _ = setting
        svm = FormatSelector("svm", feature_set="set12")
        cs = ConfidenceSelector(svm, executor, threshold=0.5).fit(ds)
        with pytest.raises(TypeError, match="predict_proba"):
            cs.decide(matrices[ds.names[0]], ds.X("set12")[0])
