"""Adaptive serving tests: the online-learning loop end to end.

Unit coverage of every loop component (experience buffer, promotion
policy, Page–Hinkley / drift monitor, shadow scoreboard) plus the
acceptance scenario: a deliberately mistrained PRODUCTION selector is
corrected live — feedback accumulates into training rows, a candidate
trains and shadow-evaluates, the regret gate promotes it, and the
post-promotion regret drops measurably.  Also: gate-refusal, manual
promote/rollback (API, daemon ops, CLI), drift alarms, and the
registry's promotion audit trail.
"""

import json
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core import FormatSelector, SpMVDataset
from repro.features import ALL_FEATURES
from repro.serve import (
    AdaptiveController,
    AdaptiveError,
    DriftMonitor,
    ExperienceBuffer,
    ModelRegistry,
    PageHinkley,
    PromotionPolicy,
    SelectionService,
    ShadowScoreboard,
    handle_request,
)

FORMATS = ("coo", "csr", "ell", "hyb")


def _toy_dataset(n=160, seed=0):
    """Synthetic workload where the best format follows feature 0."""
    rng = np.random.default_rng(seed)
    X = np.abs(rng.normal(size=(n, len(ALL_FEATURES)))) + 0.1
    cuts = np.quantile(X[:, 0], [0.25, 0.5, 0.75])
    truth = np.digitize(X[:, 0], cuts)
    times = np.empty((n, len(FORMATS)))
    for i, t in enumerate(truth):
        times[i] = 1.0 + 0.5 * rng.random(len(FORMATS))
        times[i, t] = 0.5
    return SpMVDataset(
        names=[f"m{i}" for i in range(n)],
        feature_array=X,
        times=times,
        formats=FORMATS,
        device="toy",
        precision="single",
    )


def _mistrained(ds, model="decision_tree"):
    """A selector fitted on rotated labels — deliberately wrong."""
    bad = FormatSelector(model, feature_set="set123")
    bad.fit(ds.X("set123"), (ds.labels + 1) % len(FORMATS))
    bad.formats_ = tuple(ds.formats)
    return bad


def _observed(ds, i):
    return {f: float(t) for f, t in zip(ds.formats, ds.times[i])}


@pytest.fixture
def toy():
    return _toy_dataset()


@pytest.fixture
def rig(toy, tmp_path):
    """Registry with a mistrained production selector + live service."""
    registry = ModelRegistry(tmp_path)
    registry.save(_mistrained(toy), "sel", dataset=toy, promote=True)
    model, record = registry.load("sel")
    service = SelectionService(model, mode="direct")
    service.records["selector"] = record
    return toy, registry, service


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


class TestExperienceBuffer:
    def test_rows_accumulate_and_bound(self):
        buf = ExperienceBuffer(maxlen=4)
        vec = np.ones(len(ALL_FEATURES))
        for i in range(7):
            buf.add(f"r{i}", vec, {"csr": 1.0, "ell": 2.0})
        assert len(buf) == 4
        assert buf.n_added == 7
        assert [r[0] for r in buf.rows()] == ["r3", "r4", "r5", "r6"]

    def test_rejects_non_canonical_vectors(self):
        buf = ExperienceBuffer()
        with pytest.raises(ValueError, match="canonical"):
            buf.add("r0", np.ones(3), {"csr": 1.0})

    def test_to_dataset_fills_missing_formats_with_inf(self):
        buf = ExperienceBuffer()
        vec = np.ones(len(ALL_FEATURES))
        buf.add("a", vec, {"csr": 2.0, "ell": 1.0})
        ds = buf.to_dataset(FORMATS, device="d", precision="single")
        assert ds is not None and len(ds) == 1
        row = ds.times[0]
        assert row[FORMATS.index("ell")] == 1.0
        assert np.isinf(row[FORMATS.index("coo")])
        assert ds.labels[0] == FORMATS.index("ell")

    def test_min_coverage_filters_uninformative_rows(self):
        buf = ExperienceBuffer(min_coverage=2)
        vec = np.ones(len(ALL_FEATURES))
        buf.add("only-chosen", vec, {"csr": 1.0})
        assert buf.to_dataset(FORMATS) is None
        buf.add("covered", vec, {"csr": 1.0, "hyb": 3.0})
        ds = buf.to_dataset(FORMATS)
        assert ds.names == ["covered"]

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            ExperienceBuffer(maxlen=0)
        with pytest.raises(ValueError):
            ExperienceBuffer(min_coverage=0)


class TestPromotionPolicy:
    def test_gate_sequence(self):
        policy = PromotionPolicy(
            min_samples=10, min_improvement=0.1, cooldown_s=60.0
        )
        ok, why = policy.evaluate(
            n_paired=3, shadow_regret_mean=0.0, production_regret_mean=1.0
        )
        assert not ok and "insufficient samples" in why
        ok, why = policy.evaluate(
            n_paired=20, shadow_regret_mean=0.0, production_regret_mean=1.0,
            seconds_since_promotion=5.0,
        )
        assert not ok and "cooldown" in why
        ok, why = policy.evaluate(
            n_paired=20, shadow_regret_mean=0.0, production_regret_mean=0.0
        )
        assert not ok and "already zero" in why
        ok, why = policy.evaluate(
            n_paired=20, shadow_regret_mean=0.95, production_regret_mean=1.0
        )
        assert not ok and "improvement" in why
        ok, why = policy.evaluate(
            n_paired=20, shadow_regret_mean=0.2, production_regret_mean=1.0,
            seconds_since_promotion=120.0,
        )
        assert ok and "improvement" in why


class TestPageHinkley:
    def test_stationary_stream_stays_quiet(self):
        rng = np.random.default_rng(0)
        ph = PageHinkley(delta=0.005, threshold=0.5, min_samples=30)
        assert not any(ph.update(x) for x in 0.2 + 0.01 * rng.random(500))

    def test_upward_mean_shift_alarms(self):
        rng = np.random.default_rng(0)
        ph = PageHinkley(delta=0.005, threshold=0.5, min_samples=30)
        for x in 0.2 + 0.01 * rng.random(100):
            assert not ph.update(x)
        fired = [ph.update(x) for x in 1.0 + 0.01 * rng.random(100)]
        assert any(fired)

    def test_reset_clears_state(self):
        ph = PageHinkley(min_samples=1, threshold=0.1)
        ph.update(0.0)
        assert ph.update(10.0)
        ph.reset()
        assert ph.n == 0 and ph.statistic == 0.0


class TestDriftMonitor:
    def test_feature_shift_alarm_is_rising_edge(self):
        rng = np.random.default_rng(1)
        mon = DriftMonitor(window=32, shift_threshold=3.0)
        base = rng.normal(size=(200, 4))
        edges = [mon.update(features=v) for v in base]
        assert not any(edges)
        assert mon.feature_shift() < 3.0
        shifted = rng.normal(size=(64, 4)) + 10.0
        edges = [mon.update(features=v) for v in shifted]
        assert sum(edges) == 1  # alarm latches; only the edge counts
        assert mon.feature_shift() > 3.0
        assert mon.n_alarms == 1

    def test_regret_stream_feeds_page_hinkley(self):
        mon = DriftMonitor(
            window=8,
            page_hinkley=PageHinkley(min_samples=5, threshold=0.2),
        )
        for _ in range(20):
            mon.update(regret=0.01)
        assert any(mon.update(regret=2.0) for _ in range(20))
        snap = mon.snapshot()
        assert snap["alarmed"] and snap["regret_ph"] > 0.2

    def test_snapshot_shape(self):
        snap = DriftMonitor(window=4).snapshot()
        for key in ("observations", "feature_shift", "shift_threshold",
                    "reference_filled", "regret_ph", "alarms", "alarmed"):
            assert key in snap


class TestShadowScoreboard:
    def test_pairing_math(self):
        board = ShadowScoreboard("sel", "v0002")
        board.record_decisions(5)
        board.record_pair(0.0, 1.0, agreed=False)
        board.record_pair(0.5, 1.5, agreed=True)
        board.record_uncovered()
        snap = board.snapshot()
        assert snap["n_decisions"] == 5
        assert snap["n_paired"] == 2
        assert snap["n_uncovered"] == 1
        assert snap["agreement_rate"] == 0.5
        assert snap["shadow_regret_mean"] == pytest.approx(0.25)
        assert snap["production_regret_mean"] == pytest.approx(1.25)
        assert snap["improvement"] == pytest.approx(1.0 - 0.25 / 1.25)


# ---------------------------------------------------------------------------
# Registry audit trail
# ---------------------------------------------------------------------------


class TestPromotionAudit:
    def test_promote_appends_audit_records(self, toy, tmp_path):
        registry = ModelRegistry(tmp_path)
        sel = _mistrained(toy)
        registry.save(sel, "sel", dataset=toy)
        registry.save(sel, "sel", dataset=toy)
        registry.promote("sel", "v0001", reason="bootstrap")
        registry.promote("sel", "v0002", reason="better",
                         stats={"n_paired": 7})
        registry.promote("sel", "v0001", action="rollback", reason="revert")
        history = registry.promotion_history("sel")
        assert [e["action"] for e in history] == [
            "promote", "promote", "rollback"
        ]
        assert history[0]["previous"] is None
        assert history[1]["previous"] == "v0001"
        assert history[1]["stats"] == {"n_paired": 7}
        assert history[2]["version"] == "v0001"
        assert registry.production_version("sel") == "v0001"
        # The version before the latest move: the rollback's previous.
        assert registry.rollback_target("sel") == "v0002"

    def test_returned_record_carries_the_entry(self, toy, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(_mistrained(toy), "sel", dataset=toy)
        record = registry.promote("sel", "v0001", reason="why not")
        assert record.meta["promotion"]["reason"] == "why not"

    def test_unreadable_lines_are_skipped(self, toy, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(_mistrained(toy), "sel", dataset=toy)
        registry.promote("sel", "v0001")
        with open(tmp_path / "sel" / "PROMOTIONS.jsonl", "a") as fh:
            fh.write("not json\n")
        assert len(registry.promotion_history("sel")) == 1

    def test_history_empty_without_file(self, tmp_path):
        assert ModelRegistry(tmp_path).promotion_history("sel") == []
        assert ModelRegistry(tmp_path).rollback_target("sel") is None


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def _drive(service, ds, indices):
    """Serve + report observed times for the given dataset rows."""
    regrets = []
    for i in indices:
        decision = service.predict(ds.feature_array[i])
        event = service.record_feedback(decision.request_id, _observed(ds, i))
        regrets.append(event.regret)
    return regrets


class TestAdaptiveLoop:
    def test_mistrained_production_is_corrected_end_to_end(self, rig):
        """The acceptance scenario: train -> shadow -> gated promote."""
        ds, registry, service = rig
        controller = AdaptiveController(
            service,
            registry,
            "sel",
            policy=PromotionPolicy(min_samples=20, min_improvement=0.05),
            train_every=50,
            min_train_rows=40,
        )
        assert service.adaptive is controller
        regrets = _drive(service, ds, range(len(ds)))

        assert controller.n_trainings >= 1
        assert controller.n_promotions >= 1
        assert registry.production_version("sel") != "v0001"
        # The mistrained model was wrong nearly everywhere; the promoted
        # candidate must cut live mean regret down hard.
        before = np.mean(regrets[:40])
        after = np.mean(regrets[-40:])
        assert before > 0.5
        assert after < before / 2
        # Audit trail records the gated move with its evidence.
        audited = [e for e in registry.promotion_history("sel")
                   if e["action"] == "promote" and e.get("stats")]
        assert audited
        assert audited[0]["stats"]["n_paired"] >= 20
        assert audited[0]["stats"]["improvement"] >= 0.05
        # The service hot-swapped: provenance follows the new version.
        assert service.records["selector"].version == (
            registry.production_version("sel")
        )

    def test_gate_unmet_skips_promotion(self, rig):
        ds, registry, service = rig
        controller = AdaptiveController(
            service,
            registry,
            "sel",
            # Impossible bar: nothing improves regret by 100x.
            policy=PromotionPolicy(min_samples=15, min_improvement=1.5),
            train_every=40,
            min_train_rows=30,
        )
        _drive(service, ds, range(120))
        assert controller.n_trainings >= 1
        assert controller.n_promotions == 0
        assert registry.production_version("sel") == "v0001"
        with pytest.raises(AdaptiveError, match="gate not met"):
            controller.promote()
        status = controller.status()
        assert status["shadow"] is not None
        assert status["shadow"]["gate"]["ok"] is False

    def test_shadow_scoreboard_pairs_against_production(self, rig):
        ds, registry, service = rig
        controller = AdaptiveController(
            service, registry, "sel",
            policy=PromotionPolicy(min_samples=10 ** 6),  # never promote
            train_every=40, min_train_rows=40,
        )
        _drive(service, ds, range(60))
        board = controller.status()["shadow"]
        assert board is not None
        assert board["n_paired"] > 0
        # Observations cover every format, so no shadow pick is uncovered.
        assert board["n_uncovered"] == 0
        assert board["shadow_regret_mean"] <= board["production_regret_mean"]

    def test_train_candidate_needs_experience(self, rig):
        _, registry, service = rig
        controller = AdaptiveController(service, registry, "sel", auto=False)
        assert controller.train_candidate() is None
        with pytest.raises(AdaptiveError, match="not enough experience"):
            controller.train_candidate(force=True)
        with pytest.raises(AdaptiveError, match="no shadow candidate"):
            controller.promote(force=True)

    def test_warm_start_candidate_for_mlp_family(self, toy, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(_mistrained(toy, model="mlp"), "sel", dataset=toy,
                      promote=True)
        model, _ = registry.load("sel")
        service = SelectionService(model, mode="direct")
        controller = AdaptiveController(
            service, registry, "sel", auto=False,
            min_train_rows=30, warm_kwargs={"n_epochs": 5},
        )
        _drive(service, toy, range(40))
        record = controller.train_candidate()
        assert record is not None
        assert record.meta["warm_start"] is True
        assert record.meta["trained_by"] == "adaptive"
        assert record.meta["parent_version"] == "v0001"

    def test_cold_refit_candidate_for_tree_family(self, rig):
        ds, registry, service = rig
        controller = AdaptiveController(
            service, registry, "sel", auto=False, min_train_rows=30,
        )
        _drive(service, ds, range(40))
        record = controller.train_candidate()
        assert record.meta["warm_start"] is False
        assert record.meta["n_experience_rows"] >= 30

    def test_manual_rollback_restores_previous_version(self, rig):
        ds, registry, service = rig
        controller = AdaptiveController(
            service, registry, "sel",
            policy=PromotionPolicy(min_samples=20, min_improvement=0.05),
            train_every=50, min_train_rows=40,
        )
        _drive(service, ds, range(len(ds)))
        promoted = registry.production_version("sel")
        assert controller.n_promotions >= 1 and promoted != "v0001"
        entry = controller.rollback(reason="bad rollout")
        assert entry["action"] == "rollback"
        assert registry.production_version("sel") != promoted
        assert service.records["selector"].version == (
            registry.production_version("sel")
        )
        assert controller.n_rollbacks == 1

    def test_rollback_without_history_fails(self, rig):
        _, registry, service = rig
        controller = AdaptiveController(service, registry, "sel", auto=False)
        with pytest.raises(AdaptiveError, match="no previous"):
            controller.rollback()

    def test_hook_errors_are_counted_not_raised(self, rig):
        ds, registry, service = rig
        controller = AdaptiveController(service, registry, "sel", auto=False)
        controller.buffer = None  # break the ingest path
        errors_before = controller._m_errors.value
        decision = service.predict(ds.feature_array[0])
        service.record_feedback(decision.request_id, _observed(ds, 0))
        assert controller._m_errors.value > errors_before

    def test_stats_exposes_adaptive_and_drift_sections(self, rig):
        ds, registry, service = rig
        AdaptiveController(service, registry, "sel", auto=False)
        _drive(service, ds, range(5))
        section = service.stats()["service"]["adaptive"]
        assert section["model"] == "sel"
        assert section["production"] == "v0001"
        assert section["buffer"]["rows"] == 5
        assert "feature_shift" in section["drift"]
        assert "regret_ph" in section["drift"]

    def test_drift_alarm_fires_on_feature_shift(self, rig):
        ds, registry, service = rig
        controller = AdaptiveController(
            service, registry, "sel", auto=False,
            # Regret PH disabled: the mistrained production would trip
            # it immediately; this test isolates the feature detector.
            drift=DriftMonitor(window=16, shift_threshold=3.0,
                               page_hinkley=PageHinkley(threshold=1e9)),
        )
        _drive(service, ds, range(32))
        assert controller.status()["drift"]["alarms"] == 0
        shifted = ds.feature_array[:32] + 100.0
        for i in range(32):
            decision = service.predict(shifted[i])
            service.record_feedback(decision.request_id, _observed(ds, i))
        status = controller.status()["drift"]
        assert status["alarms"] >= 1
        assert status["feature_shift"] > 3.0
        # The obs gauge mirrors the detector.
        gauge = obs.gauge("serve.adaptive.drift.feature_shift")
        assert gauge.value > 3.0
        # One store for the alarm count: the published counter is the
        # monitor's own.
        published = obs.get_metrics().get("serve.adaptive.drift.alarms")
        assert published is controller.drift.alarms
        assert published.value == status["alarms"]

    def test_adopt_selector_validates_vocabulary(self, rig, mini_dataset):
        _, _, service = rig
        other = FormatSelector("decision_tree", feature_set="set123").fit(
            mini_dataset.drop_coo_best()
        )
        if tuple(other.formats_) != tuple(service.formats):
            with pytest.raises(ValueError, match="formats"):
                service.adopt_selector(other)
        with pytest.raises(ValueError, match="dataset-fitted"):
            service.adopt_selector(FormatSelector("decision_tree"))


# ---------------------------------------------------------------------------
# Daemon ops + CLI
# ---------------------------------------------------------------------------


class TestDaemonOps:
    def test_ops_require_a_controller(self, rig):
        _, _, service = rig
        for op in ("adaptive", "promote", "rollback"):
            response = handle_request(service, {"op": op})
            assert response["ok"] is False
            assert "no adaptive controller" in response["error"]

    def test_adaptive_status_and_forced_train(self, rig):
        ds, registry, service = rig
        AdaptiveController(service, registry, "sel", auto=False,
                           min_train_rows=20)
        response = handle_request(service, {"op": "adaptive"})
        assert response["ok"] and response["adaptive"]["model"] == "sel"
        _drive(service, ds, range(30))
        response = handle_request(service, {"op": "adaptive", "train": True})
        assert response["ok"] and response["trained"] == "v0002"
        assert response["adaptive"]["shadow"]["version"] == "v0002"

    def test_promote_and_rollback_ops(self, rig):
        ds, registry, service = rig
        AdaptiveController(service, registry, "sel", auto=False,
                           min_train_rows=20)
        _drive(service, ds, range(30))
        handle_request(service, {"op": "adaptive", "train": True})
        response = handle_request(
            service, {"op": "promote", "reason": "operator says so"}
        )
        assert response["ok"]
        assert response["promotion"]["version"] == "v0002"
        assert registry.production_version("sel") == "v0002"
        response = handle_request(service, {"op": "rollback"})
        assert response["ok"]
        assert response["promotion"]["action"] == "rollback"
        assert registry.production_version("sel") == "v0001"

    def test_promote_explicit_version(self, rig):
        ds, registry, service = rig
        AdaptiveController(service, registry, "sel", auto=False,
                           min_train_rows=20)
        _drive(service, ds, range(30))
        handle_request(service, {"op": "adaptive", "train": True})
        response = handle_request(
            service, {"op": "promote", "version": "v0002", "reason": "pin"}
        )
        assert response["ok"]
        assert registry.production_version("sel") == "v0002"
        assert service.records["selector"].version == "v0002"


class TestAdaptCLI:
    @pytest.fixture
    def audited_registry(self, toy, tmp_path):
        root = tmp_path / "reg"
        registry = ModelRegistry(root)
        sel = _mistrained(toy)
        registry.save(sel, "sel", dataset=toy)
        registry.save(sel, "sel", dataset=toy)
        registry.promote("sel", "v0001", reason="bootstrap")
        return root

    def test_status(self, audited_registry, capsys):
        assert main(["adapt", "status", "--registry", str(audited_registry),
                     "--name", "sel"]) == 0
        out = capsys.readouterr().out
        assert "production: v0001" in out
        assert "v0001, v0002" in out

    def test_history_table_and_json(self, audited_registry, capsys):
        assert main(["adapt", "history", "--registry", str(audited_registry),
                     "--name", "sel"]) == 0
        assert "bootstrap" in capsys.readouterr().out
        assert main(["adapt", "history", "--registry", str(audited_registry),
                     "--name", "sel", "--json"]) == 0
        entry = json.loads(capsys.readouterr().out.splitlines()[0])
        assert entry["action"] == "promote"

    def test_promote_and_rollback(self, audited_registry, capsys):
        assert main(["adapt", "promote", "--registry", str(audited_registry),
                     "--name", "sel", "--version", "v0002",
                     "--reason", "ship it"]) == 0
        registry = ModelRegistry(audited_registry)
        assert registry.production_version("sel") == "v0002"
        assert main(["adapt", "rollback", "--registry", str(audited_registry),
                     "--name", "sel"]) == 0
        assert registry.production_version("sel") == "v0001"
        history = registry.promotion_history("sel")
        assert history[-1]["action"] == "rollback"

    def test_unknown_model_fails(self, tmp_path, capsys):
        assert main(["adapt", "status", "--registry", str(tmp_path),
                     "--name", "ghost"]) == 1
        assert "error" in capsys.readouterr().err


class TestPromotionHammer:
    """Promote/rollback racing predict_batch across threads."""

    def test_predicts_race_promote_and_rollback(self, toy, tmp_path):
        registry = ModelRegistry(tmp_path)
        bad = _mistrained(toy)
        good = FormatSelector("decision_tree", feature_set="set123").fit(toy)
        registry.save(bad, "sel", dataset=toy, promote=True)
        registry.save(good, "sel", dataset=toy)
        X = toy.feature_array
        want = {
            name: [d.chosen for d in
                   SelectionService(model, mode="direct").predict_batch(list(X))]
            for name, model in (("bad", bad), ("good", good))
        }
        assert sum(a != b for a, b in zip(want["bad"], want["good"])) > len(X) // 2
        model, record = registry.load("sel")
        service = SelectionService(model, mode="direct")
        service.records["selector"] = record
        controller = AdaptiveController(service, registry, "sel", auto=False)

        moves, errors, stop = 40, [], threading.Event()

        def predict(seed):
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    rows = rng.integers(0, len(X), size=int(rng.integers(1, 9)))
                    for i, d in zip(rows, service.predict_batch(list(X[rows]))):
                        if d.chosen not in (want["bad"][i], want["good"][i]):
                            errors.append(f"row {i}: {d.chosen}")
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(repr(exc))

        def move():
            try:
                for _ in range(moves):
                    controller.adopt_version("v0002", reason="hammer")
                    controller.rollback(reason="hammer")
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(repr(exc))
            finally:
                stop.set()

        threads = [threading.Thread(target=predict, args=(s,)) for s in range(4)]
        threads.append(threading.Thread(target=move))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        history = registry.promotion_history("sel")
        assert [(e["action"], e["version"], e["previous"]) for e in history] == (
            [("promote", "v0001", None)]
            + [("promote", "v0002", "v0001"), ("rollback", "v0001", "v0002")] * moves
        )
        assert controller.n_promotions == moves and controller.n_rollbacks == moves
        # No decision the old model made may outlive the swap in a cache.
        assert registry.production_version("sel") == "v0001"
        assert [d.chosen for d in service.predict_batch(list(X))] == want["bad"]
