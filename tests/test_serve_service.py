"""SelectionService tests: modes, caching, batching, feedback, threads."""

import threading
import time

import numpy as np
import pytest

from repro.core import FormatSelector
from repro.core.predictor import PerformancePredictor
from repro.features import ALL_FEATURES, extract_features, feature_vector
from repro.serve import ModelRegistry, SelectionService


@pytest.fixture(scope="module")
def train(mini_dataset):
    return mini_dataset.drop_coo_best()


@pytest.fixture(scope="module")
def selector(train):
    return FormatSelector("decision_tree", feature_set="set123").fit(train)


@pytest.fixture(scope="module")
def predictor(train):
    return PerformancePredictor(
        "decision_tree", feature_set="set123", mode="joint"
    ).fit(train)


@pytest.fixture(scope="module")
def matrices(mini_corpus):
    return [entry.build() for entry in list(mini_corpus)[:6]]


class TestConstruction:
    def test_mode_requirements(self, selector, predictor):
        with pytest.raises(ValueError, match="requires a predictor"):
            SelectionService(selector, mode="indirect")
        with pytest.raises(ValueError, match="requires a selector"):
            SelectionService(predictor=predictor, mode="direct")
        with pytest.raises(ValueError, match="requires a predictor"):
            SelectionService(selector, mode="hybrid")
        with pytest.raises(ValueError, match="mode must be"):
            SelectionService(selector, mode="psychic")

    def test_unfitted_selector_rejected(self):
        with pytest.raises(ValueError, match="dataset-fitted"):
            SelectionService(FormatSelector("decision_tree"))

    def test_vocabulary_must_be_configuration_keys(self, selector):
        import copy

        custom = copy.copy(selector)
        custom.formats_ = ("csr", "my_format", "also_custom")
        with pytest.raises(ValueError, match="'my_format'"):
            SelectionService(custom)

    def test_from_registry_defaults_mode(self, selector, predictor, train, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(selector, "sel", dataset=train)
        registry.save(predictor, "prd", dataset=train)
        both = SelectionService.from_registry(registry, "sel", "prd")
        assert both.mode == "hybrid"
        assert SelectionService.from_registry(registry, "sel").mode == "direct"
        assert SelectionService.from_registry(
            registry, predictor="prd"
        ).mode == "indirect"


class TestPrediction:
    def test_matches_in_process_model(self, selector, matrices):
        service = SelectionService(selector)
        decisions = service.predict_batch(matrices)
        for matrix, decision in zip(matrices, decisions):
            vec = feature_vector(extract_features(matrix), ALL_FEATURES)
            expected = selector.predict_formats(vec)[0]
            assert decision.chosen == expected

    def test_input_kinds_agree(self, selector, matrices):
        service = SelectionService(selector, feature_cache_size=0,
                                   decision_cache_size=0)
        feats = extract_features(matrices[0])
        by_matrix = service.predict(matrices[0]).chosen
        by_dict = service.predict(feats).chosen
        by_vector = service.predict(feature_vector(feats, ALL_FEATURES)).chosen
        assert by_matrix == by_dict == by_vector

    def test_predict_ms_histogram_recorded(self, selector, matrices):
        # The serve.predict_ms histogram only records while obs is
        # enabled; disabled (the default) it must stay silent.
        from repro import obs

        service = SelectionService(selector)
        service.predict(matrices[0])
        obs.disable(reset=True)
        obs.enable()
        try:
            service.predict_batch(matrices[:3])
            hist = obs.snapshot()["metrics"]["serve.predict_ms"]
        finally:
            obs.disable(reset=True)
        assert hist["type"] == "histogram"
        assert hist["count"] == 3
        assert hist["max"] >= 0.0

    def test_shared_set_vector_accepted(self, train):
        sel = FormatSelector("decision_tree", feature_set="imp").fit(train)
        service = SelectionService(sel)
        feats = {n: float(v) for n, v in zip(ALL_FEATURES, train.feature_array[0])}
        want = service.predict(feats).chosen
        vec7 = feature_vector(feats, service._sel_names)
        assert service.predict(vec7).chosen == want

    def test_bad_vector_length_rejected(self, selector):
        service = SelectionService(selector)
        with pytest.raises(ValueError, match="cannot interpret"):
            service.predict(np.arange(5, dtype=float))
        with pytest.raises(ValueError, match="1-D vector"):
            service.predict(np.zeros((2, 17)))

    def test_missing_feature_rejected(self, selector):
        service = SelectionService(selector)
        with pytest.raises(ValueError, match="missing"):
            service.predict({"n_rows": 10.0})

    def test_indirect_mode_is_argmin(self, predictor, matrices):
        service = SelectionService(predictor=predictor, mode="indirect")
        decision = service.predict(matrices[0])
        times = decision.predicted_times
        assert decision.chosen == min(times, key=times.get)
        vec = feature_vector(extract_features(matrices[0]), ALL_FEATURES)
        np.testing.assert_allclose(
            sorted(times.values()), sorted(predictor.predict(vec)[0])
        )

    def test_hybrid_tolerance_extremes(self, selector, predictor, matrices):
        # Huge tolerance → always the classifier's pick; zero → the argmin.
        loose = SelectionService(selector, predictor, mode="hybrid",
                                 tolerance=1e9)
        tight = SelectionService(selector, predictor, mode="hybrid",
                                 tolerance=0.0)
        for matrix in matrices:
            vec = feature_vector(extract_features(matrix), ALL_FEATURES)
            d_loose = loose.predict(matrix)
            assert d_loose.chosen == d_loose.direct_choice
            assert d_loose.direct_choice == selector.predict_formats(vec)[0]
            d_tight = tight.predict(matrix)
            times = d_tight.predicted_times
            assert d_tight.chosen == min(times, key=times.get)

    def test_request_ids(self, selector, matrices):
        service = SelectionService(selector)
        auto = service.predict(matrices[0])
        named = service.predict(matrices[0], request_id="job-7")
        assert auto.request_id == "r000000"
        assert named.request_id == "job-7"


class TestCaching:
    def test_caches_hit_on_resubmission(self, selector, matrices):
        service = SelectionService(selector)
        first = service.predict_batch(matrices)
        second = service.predict_batch(matrices)
        assert [d.chosen for d in first] == [d.chosen for d in second]
        assert not any(d.cached for d in first)
        assert all(d.cached for d in second)
        snap = service.telemetry.snapshot()
        assert snap["feature_cache"]["hits"] == len(matrices)
        assert snap["decision_cache"]["hits"] == len(matrices)
        assert snap["requests"] == 2 * len(matrices)

    def test_cache_disable(self, selector, matrices):
        service = SelectionService(selector, feature_cache_size=0,
                                   decision_cache_size=0)
        service.predict(matrices[0])
        repeat = service.predict(matrices[0])
        assert not repeat.cached
        snap = service.telemetry.snapshot()
        assert snap["decision_cache"]["hits"] == 0

    def test_clear_caches(self, selector, matrices):
        service = SelectionService(selector)
        service.predict(matrices[0])
        service.clear_caches()
        assert not service.predict(matrices[0]).cached

    def test_latency_recorded(self, selector, matrices):
        service = SelectionService(selector)
        service.predict_batch(matrices)
        snap = service.telemetry.snapshot()
        assert snap["latency_ms"]["p50"] > 0
        assert snap["latency_ms"]["p99"] >= snap["latency_ms"]["p50"]
        assert snap["throughput_rps"] > 0


class TestBatchSemantics:
    def test_duplicate_items_hit_model_once(self, selector, matrices,
                                            monkeypatch):
        service = SelectionService(selector, feature_cache_size=0,
                                   decision_cache_size=0)
        shapes = []
        real = selector.predict

        def recording(X):
            shapes.append(X.shape[0])
            return real(X)

        monkeypatch.setattr(selector, "predict", recording)
        batch = [matrices[0]] * 5 + [matrices[1]] * 3
        decisions = service.predict_batch(batch)
        # Two unique structures → one model call over exactly two rows,
        # even with every cache disabled (dedupe, not caching).
        assert shapes == [2]
        assert len(decisions) == 8
        assert len({d.chosen for d in decisions[:5]}) == 1
        assert len({d.chosen for d in decisions[5:]}) == 1
        assert not any(d.cached for d in decisions)

    def test_cache_hits_not_billed_model_time(self, selector, matrices,
                                              monkeypatch):
        service = SelectionService(selector)
        real = selector.predict

        def slow(X):
            time.sleep(0.05)
            return real(X)

        monkeypatch.setattr(selector, "predict", slow)
        first = service.predict(matrices[0])
        assert not first.cached and first.latency_ms >= 50
        # Mixed batch: the cache hit must not be billed the miss's
        # model time, only the shared per-batch overhead.
        hit, miss = service.predict_batch([matrices[0], matrices[1]])
        assert hit.cached and not miss.cached
        assert miss.latency_ms >= 50
        assert hit.latency_ms < 50

    def test_registry_provenance_in_stats(self, selector, predictor, train,
                                          tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(selector, "sel", dataset=train)
        registry.save(predictor, "prd", dataset=train)
        service = SelectionService.from_registry(registry, "sel", "prd")
        models = service.stats()["service"]["models"]
        assert set(models) == {"selector", "predictor"}
        assert models["selector"] == {"name": "sel", "version": "v0001"}
        assert models["predictor"] == {"name": "prd", "version": "v0001"}

    def test_records_empty_for_in_process_models(self, selector):
        service = SelectionService(selector)
        assert service.records == {}
        assert service.stats()["service"]["models"] == {}


class TestFeedback:
    def test_regret_against_oracle(self, selector, train, matrices):
        service = SelectionService(selector)
        decision = service.predict(matrices[0])
        observed = {f: 1.0 for f in train.formats}
        observed[decision.chosen] = 1.2   # chosen is 20% worse than best
        event = service.record_feedback(decision.request_id, observed)
        assert event.regret == pytest.approx(0.2)
        snap = service.telemetry.snapshot()
        assert snap["feedback"]["count"] == 1
        assert snap["feedback"]["regret_mean"] == pytest.approx(0.2)
        assert snap["feedback"]["oracle_hit_rate"] == 0.0

    def test_oracle_hit(self, selector, train, matrices):
        service = SelectionService(selector)
        decision = service.predict(matrices[0])
        observed = {f: 2.0 for f in train.formats}
        observed[decision.chosen] = 1.0   # chosen is the fastest
        event = service.record_feedback(decision.request_id, observed)
        assert event.regret == 0.0
        assert event.optimal == decision.chosen
        snap = service.telemetry.snapshot()
        assert snap["feedback"]["oracle_hit_rate"] == 1.0

    def test_feedback_rejects_chosen_that_is_not_a_configuration(
        self, selector
    ):
        from repro import tuning

        service = SelectionService(selector)
        with pytest.raises(tuning.ConfigError):
            service.record_feedback("e", {"csr": 1.0}, chosen="my_format")
        assert service.telemetry.snapshot()["feedback"]["count"] == 0

    def test_unknown_id_needs_chosen(self, selector, train):
        service = SelectionService(selector)
        observed = {f: 1.0 for f in train.formats}
        with pytest.raises(KeyError, match="unknown request id"):
            service.record_feedback("ghost", observed)
        event = service.record_feedback("ghost", observed,
                                        chosen=train.formats[0])
        assert event.regret == 0.0

    def test_stats_distributions(self, selector, train, matrices):
        service = SelectionService(selector)
        decision = service.predict(matrices[0])
        observed = {f: 1.0 + i for i, f in enumerate(train.formats)}
        service.record_feedback(decision.request_id, observed)
        stats = service.stats()
        assert stats["service"]["feedback"]["chosen_distribution"] == {
            decision.chosen: 1
        }
        assert stats["service"]["feedback"]["optimal_distribution"] == {
            train.formats[0]: 1
        }


class TestThreads:
    def test_concurrent_predict_and_feedback(self, selector, train, matrices):
        service = SelectionService(selector)
        observed = {f: 1.0 for f in train.formats}
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(25):
                    m = matrices[int(rng.integers(len(matrices)))]
                    decision = service.predict(m)
                    service.record_feedback(decision.request_id, observed)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        snap = service.telemetry.snapshot()
        assert snap["requests"] == 100
        assert snap["feedback"]["count"] == 100

    def test_concurrent_regret_is_counted_exactly(self):
        import sys

        from repro.serve import FeedbackLog, ServiceTelemetry

        telemetry = ServiceTelemetry(FeedbackLog())

        def worker():
            for _ in range(250):
                telemetry.record_regret(0.5)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        feedback = telemetry.snapshot()["feedback"]
        assert feedback["count"] == 1000
        assert feedback["regret_ewma"] == 0.5


class TestSimulatorBackend:
    @pytest.fixture(scope="class")
    def simulator(self):
        from repro.gpu import DEVICES, SpMVExecutor

        return SpMVExecutor(DEVICES["v100"], "single", seed=0)

    def test_simulator_alone_backs_indirect(self, simulator, matrices):
        service = SelectionService(simulator=simulator, mode="indirect")
        decision = service.predict(matrices[0])
        # The pick is the simulator's own fastest feasible format.
        est = {
            fmt: simulator.estimate(matrices[0], fmt).seconds
            for fmt in service.formats
        }
        assert decision.chosen == min(est, key=est.get)
        assert decision.predicted_times[decision.chosen] == est[decision.chosen]

    def test_infeasible_formats_masked(self, simulator, matrices):
        from repro.gpu import DEVICES, SpMVExecutor

        strict = SpMVExecutor(DEVICES["k40c"], "single",
                              ell_padding_limit=1.01)
        service = SelectionService(simulator=strict, mode="indirect")
        skewed = next(m for m in matrices
                      if strict.profile(m).nnz_max > 2 * strict.profile(m).nnz_mu)
        decision = service.predict(skewed)
        assert decision.predicted_times["ell"] == np.inf
        assert decision.chosen != "ell"

    def test_repeated_infeasible_key_masked_in_every_column(self):
        """A vocabulary that repeats an infeasible key (a dataset with a
        repeated format) masks every copy, not just the first."""
        from repro import tuning
        from repro.formats import COOMatrix
        from repro.gpu import KEPLER_K40C, SpMVExecutor

        rng = np.random.default_rng(3)
        row = np.concatenate([np.zeros(600, np.int64), rng.integers(1, 64, 200)])
        col = np.concatenate([np.arange(600), rng.integers(0, 700, 200)])
        wide = COOMatrix((64, 700), row, col, np.ones(row.size))
        service = SelectionService(
            simulator=SpMVExecutor(KEPLER_K40C), mode="indirect"
        )
        service.formats = ("ell?width_cap=512", "csr", "ell?width_cap=512")
        service._format_configs = tuple(
            tuning.Configuration.from_key(k) for k in service.formats
        )
        times = service._simulate_times([service.simulator.profile(wide)])
        assert np.isinf(times[0, 0]) and np.isinf(times[0, 2])
        assert np.isfinite(times[0, 1])
        assert service.predict(wide).chosen == "csr"

    def test_dict_input_requires_predictor(self, simulator, matrices):
        service = SelectionService(simulator=simulator, mode="indirect")
        with pytest.raises(ValueError, match="matrix inputs"):
            service.predict(extract_features(matrices[0]))

    def test_hybrid_with_simulator_times(self, selector, simulator, matrices):
        service = SelectionService(selector, simulator=simulator, mode="hybrid")
        decision = service.predict(matrices[1])
        assert decision.direct_choice in service.formats
        assert decision.predicted_times is not None

    def test_decision_cache_keyed_by_structure(self, simulator, matrices):
        service = SelectionService(simulator=simulator, mode="indirect")
        first = service.predict(matrices[2])
        again = service.predict(matrices[2])
        assert again.cached and not first.cached
        assert again.chosen == first.chosen

    def test_caches_key_the_whole_structure(self, selector, simulator):
        """Two matrices whose structure digests hash the same stride
        sample of ``indices`` get their own features and decision."""
        from repro.analysis import analyze_matrix
        from repro.formats import COOMatrix

        n = 2000
        rows = np.repeat(np.arange(n), 5)
        cols = np.tile(np.arange(0, 500, 100), n)
        changed = cols.copy()
        changed[1] = 1  # row 0's column 100; the digest's stride skips it
        a = COOMatrix((n, n), rows, cols, np.ones(rows.size))
        b = COOMatrix((n, n), rows, changed, np.ones(rows.size))
        assert analyze_matrix(a).profile.digest == analyze_matrix(b).profile.digest
        service = SelectionService(selector, simulator=simulator, mode="hybrid")
        first, second = service.predict(a), service.predict(b)
        assert not first.cached and not second.cached
        assert service.stats()["feature_cache"] == {
            "hits": 0, "misses": 2, "hit_rate": 0.0,
        }
        nnzb_tot = ALL_FEATURES.index("nnzb_tot")
        for m, own in ((a, 10000), (b, 9999)):
            _, vec, _, hit, _ = service._featurize(m)
            assert hit and vec[nnzb_tot] == own
        assert service.predict(b).cached

    def test_stats_surface(self, simulator, matrices):
        service = SelectionService(simulator=simulator, mode="indirect")
        service.predict(matrices[0])
        assert service.stats()["service"]["simulator"] == {
            "device": "Tesla V100",
            "precision": "single",
        }


class TestConfigurationDecisions:
    """The Configuration-first decision surface (repro.tuning)."""

    @pytest.fixture(scope="class")
    def simulator(self):
        from repro.gpu import DEVICES, SpMVExecutor

        return SpMVExecutor(DEVICES["k40c"], "single", seed=0)

    def test_decision_carries_full_configuration(self, simulator, matrices):
        from repro import tuning

        service = SelectionService(simulator=simulator, mode="indirect")
        decision = service.predict(matrices[0])
        assert isinstance(decision.config, tuning.Configuration)
        assert decision.config.key == decision.chosen
        wire = decision.to_dict()
        # One key per decision: the structured configuration.
        assert "format" not in wire
        assert wire["config"]["format"] == decision.config.format
        assert wire["config"]["key"] == decision.chosen
        assert wire["config"]["params"] == dict(decision.config.resolved_params)

    def test_tuned_vocabulary_round_trips(self, simulator, matrices):
        """A selector fitted over the joint space serves config keys."""
        from repro import tuning
        from repro.bench.campaign import run_campaign
        from repro.matrices import SyntheticCorpus

        corpus = list(SyntheticCorpus(scale=0.005, seed=5, max_nnz=50_000))
        ds = run_campaign(corpus, simulator.device, "single", tuned=True,
                          reps=4, seed=0, workers=1).to_dataset()
        selector = FormatSelector("decision_tree", feature_set="set123").fit(ds)
        service = SelectionService(selector)
        assert service.formats == tuning.tuned_space()
        decision = service.predict(matrices[0])
        assert decision.config is not None
        assert decision.to_dict()["config"]["format"] == decision.config.format
        assert tuning.Configuration.from_key(decision.chosen) == decision.config

    def test_decision_cache_keyed_by_vocabulary(self, simulator, matrices):
        """Two configs of one format must never alias a cache entry."""
        from repro import tuning

        service = SelectionService(simulator=simulator, mode="indirect")
        first = service.predict(matrices[0])
        assert service.predict(matrices[0]).cached
        # Swap the vocabulary in place (what a hot-swapped joint-space
        # model would do); the cached decision belongs to the old
        # vocabulary and its index must not be served against the new.
        service.formats = tuning.tuned_space()
        service._format_configs = tuple(
            tuning.Configuration.from_key(k) for k in service.formats
        )
        swapped = service.predict(matrices[0])
        assert not swapped.cached
        assert swapped.formats == tuning.tuned_space()
        assert first.formats != swapped.formats

    def test_decision_cache_keyed_by_energy_weight(self, simulator, matrices):
        service = SelectionService(simulator=simulator, mode="indirect")
        assert not service.predict(matrices[0]).cached
        assert service.predict(matrices[0]).cached
        service.energy_weight = 0.5
        assert not service.predict(matrices[0]).cached

    def test_energy_weight_validated_and_in_stats(self, simulator, matrices):
        with pytest.raises(ValueError, match="energy_weight"):
            SelectionService(simulator=simulator, mode="indirect",
                             energy_weight=1.5)
        service = SelectionService(simulator=simulator, mode="indirect",
                                   energy_weight=0.25)
        service.predict(matrices[0])
        assert service.stats()["service"]["energy_weight"] == 0.25

    def test_energy_weight_ranks_by_scalarised_score(self, simulator, matrices):
        """w=1 ranks purely by the energy proxy, masked cells stay inf."""
        from repro import tuning

        time_first = SelectionService(simulator=simulator, mode="indirect")
        energy_first = SelectionService(simulator=simulator, mode="indirect",
                                        energy_weight=1.0)
        m = matrices[0]
        td = time_first.predict(m)
        ed = energy_first.predict(m)
        prof = simulator.profile(m)
        joules = {
            fmt: tuning.energy_joules(
                simulator.estimate(m, fmt), simulator.device
            )
            for fmt in energy_first.formats
            if np.isfinite(td.predicted_times[fmt])
        }
        assert ed.chosen == min(joules, key=joules.get)

    def test_feedback_accepts_configurations_and_warns_on_bare(
        self, simulator, matrices
    ):
        import warnings

        from repro import tuning

        service = SelectionService(simulator=simulator, mode="indirect")
        times = {"csr?lanes=8": 1.0, "csr": 2.0}
        event = service.record_feedback(
            "a", times, chosen=tuning.Configuration("csr", {"lanes": 8})
        )
        assert event.chosen == "csr?lanes=8"
        event = service.record_feedback(
            "b", times, chosen={"format": "csr", "params": {"lanes": 8}}
        )
        assert event.chosen == "csr?lanes=8"
        event = service.record_feedback("c", times, chosen="csr?lanes=8")
        assert event.chosen == "csr?lanes=8"
        # A bare format name is its default configuration's key: it is
        # accepted without a deprecation warning (the shim is retired).
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            event = service.record_feedback("d", times, chosen="csr")
        assert event.chosen == "csr"
        assert not any(w.category is DeprecationWarning for w in caught)
