"""repro.obs: spans, metrics, exporters, and the disabled fast path."""

import gc
import io
import itertools
import json
import threading
import time
import warnings

import pytest

from repro import obs
from repro.obs.export import (
    SNAPSHOT_SCHEMA,
    JsonLinesSink,
    check_snapshot,
    render_snapshot,
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with obs disabled and empty."""
    obs.disable(reset=True)
    yield
    obs.disable(reset=True)


class TestSpans:
    def test_nesting_builds_paths(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        spans = obs.snapshot()["spans"]
        assert spans["outer"]["count"] == 1
        assert spans["outer/inner"]["count"] == 2
        assert "inner" not in spans

    def test_parent_total_bounds_children(self):
        obs.enable()
        with obs.span("parent"):
            for _ in range(5):
                with obs.span("child"):
                    time.sleep(0.001)
        snap = obs.snapshot()
        spans = snap["spans"]
        assert spans["parent"]["total_s"] >= spans["parent/child"]["total_s"]
        assert check_snapshot(snap) == []

    def test_exception_unwinds_stack(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.span("a"):
                with obs.span("b"):
                    raise RuntimeError("boom")
        # Both spans closed; a new top-level span is not nested under 'a'.
        with obs.span("c"):
            pass
        spans = obs.snapshot()["spans"]
        assert set(spans) == {"a", "a/b", "c"}

    def test_threads_trace_independently(self):
        obs.enable()
        barrier = threading.Barrier(2)

        def work(name):
            barrier.wait()
            with obs.span(name):
                with obs.span("leaf"):
                    pass

        threads = [threading.Thread(target=work, args=(n,))
                   for n in ("t1", "t2")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = obs.snapshot()["spans"]
        # Each thread has its own stack: leaves nest under their own
        # thread's root, never under the other's.
        assert spans["t1/leaf"]["count"] == 1
        assert spans["t2/leaf"]["count"] == 1

    def test_record_span_attaches_to_open_parent(self):
        obs.enable()
        with obs.span("run"):
            obs.record_span("step", 0.25)
        spans = obs.snapshot()["spans"]
        assert spans["run/step"]["total_s"] == pytest.approx(0.25)

    def test_open_spans_appear_in_live_snapshot(self):
        obs.enable()
        with obs.span("session"):
            with obs.span("request"):
                pass
            snap = obs.snapshot()
        spans = snap["spans"]
        assert spans["session"]["open"] == 1
        assert spans["session"]["total_s"] > 0
        assert check_snapshot(snap) == []

    def test_traced_decorator(self):
        obs.enable()

        @obs.traced("ml.fit")
        def fit():
            return 42

        assert fit() == 42
        assert obs.snapshot()["spans"]["ml.fit"]["count"] == 1


class TestMetrics:
    def test_counter_gauge(self):
        obs.enable()
        obs.incr("jobs")
        obs.incr("jobs", 2)
        obs.set_gauge("workers", 8)
        metrics = obs.snapshot()["metrics"]
        assert metrics["jobs"] == {"type": "counter", "value": 3.0}
        assert metrics["workers"]["value"] == 8

    def test_histogram_quantiles(self):
        obs.enable()
        for ms in range(1, 101):
            obs.observe("latency", ms * 1e-3)
        h = obs.snapshot()["metrics"]["latency"]
        assert h["count"] == 100
        assert h["min"] == pytest.approx(1e-3)
        assert h["max"] == pytest.approx(0.1)
        # Bucketed estimates: right bucket, not exact order statistics.
        assert 0.03 <= h["p50"] <= 0.08
        assert 0.08 <= h["p95"] <= 0.11
        assert h["p50"] <= h["p95"] <= h["p99"] <= h["max"] + 1e-12

    def test_default_buckets_resolve_quantiles(self):
        """Bucketed p50/p95 stay within 5% of the sample quantile, p99
        within 10%, on lognormal latencies (median 1 ms).  At 1000
        samples the p99 rank has ~10 samples above it, so its bucket is
        sparse: a target of rank q*n from the bucket's lower edge was
        off by up to 11%."""
        import numpy as np

        for n, seed in itertools.product((1000, 2000), range(50)):
            samples = np.random.default_rng(seed).lognormal(-7.0, 1.0, n)
            h = obs.Histogram("lat")
            for v in samples:
                h.observe(v)
            for q, tol in ((50, 0.05), (95, 0.05), (99, 0.10)):
                exact = np.percentile(samples, q)
                assert abs(h.quantile(q / 100) - exact) <= tol * exact, (n, seed, q)

    def test_publish_replaces_registered_metric(self):
        first = obs.counter("owned")
        first.inc(3)
        mine = obs.Counter("owned")
        assert obs.get_metrics().publish(mine) is mine
        mine.inc()
        assert obs.counter("owned") is mine
        assert obs.snapshot()["metrics"]["owned"]["value"] == 1.0

    def test_accessors_live_when_disabled(self):
        # counter()/gauge()/histogram() handles bypass the enabled check:
        # the serve telemetry facade needs exact counts regardless.
        c = obs.counter("always")
        c.inc()
        c.inc(4)
        assert obs.snapshot()["metrics"]["always"]["value"] == 5.0

    def test_module_helpers_noop_when_disabled(self):
        obs.incr("nope")
        obs.observe("nope_h", 1.0)
        with obs.span("nope_span"):
            pass
        snap = obs.snapshot()
        assert snap["spans"] == {}
        assert "nope" not in snap["metrics"]


class TestExporters:
    def test_snapshot_schema_and_roundtrip(self):
        obs.enable()
        with obs.span("s"):
            obs.incr("c")
            obs.observe("h", 0.5)
        snap = obs.snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        clone = json.loads(json.dumps(snap))
        assert clone == snap
        assert check_snapshot(clone) == []

    def test_render_snapshot_tables(self):
        obs.enable()
        with obs.span("run"):
            with obs.span("step"):
                pass
        obs.incr("done")
        obs.observe("seconds", 2.0)
        text = render_snapshot(obs.snapshot())
        assert "run" in text and "step" in text
        assert "done" in text and "counter" in text
        assert "seconds" in text and "p95" in text

    def test_render_empty(self):
        assert "empty" in render_snapshot(obs.snapshot())

    def test_jsonl_sink_receives_events(self, tmp_path):
        stream = io.StringIO()
        obs.enable(sink=JsonLinesSink(stream))
        obs.emit("campaign.progress", {"done": 3, "total": 10})
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert len(lines) == 1
        assert lines[0]["event"] == "campaign.progress"
        # Payload keys are flattened into the event record.
        assert lines[0]["done"] == 3 and lines[0]["total"] == 10
        assert "ts" in lines[0]

    def test_jsonl_sink_to_path(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonLinesSink(path) as sink:
            obs.enable(sink=sink)
            obs.emit("e1", {})
            obs.emit("e2", {"k": 1})
            obs.set_sink(None)  # the caller's sink: the caller closes it
        obs.disable(reset=True)
        events = [json.loads(l) for l in path.read_text().splitlines()]
        assert [e["event"] for e in events] == ["e1", "e2"]

    def test_path_sinks_closed_when_replaced_or_detached(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            obs.enable(sink=tmp_path / "a.jsonl")
            obs.emit("e1", {})
            obs.set_sink(tmp_path / "b.jsonl")   # replaces the first
            obs.emit("e2", {})
            obs.set_sink(None)                   # detaches the second
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
        for name, event in (("a.jsonl", "e1"), ("b.jsonl", "e2")):
            lines = (tmp_path / name).read_text().splitlines()
            assert [json.loads(l)["event"] for l in lines] == [event]

    def test_closed_path_sink_drops_later_events(self, tmp_path):
        """A closed path sink never reopens its file: later events are
        dropped and no handle is left open."""
        path = tmp_path / "events.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sink = JsonLinesSink(path)
            sink.emit("before", {})
            sink.close()
            sink.emit("after", {})
            del sink
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
        lines = path.read_text().splitlines()
        assert [json.loads(l)["event"] for l in lines] == ["before"]

    def test_closed_stream_sink_drops_later_events(self):
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        sink.emit("before", {})
        sink.close()
        sink.emit("after", {})
        lines = stream.getvalue().splitlines()
        assert [json.loads(l)["event"] for l in lines] == ["before"]

    def test_check_snapshot_flags_violations(self):
        bad = {
            "schema": SNAPSHOT_SCHEMA,
            "spans": {
                "a/b": {"count": 1, "total_s": 2.0, "mean_s": 2.0,
                        "min_s": 2.0, "max_s": 2.0},
            },
            "metrics": {},
        }
        problems = check_snapshot(bad)
        assert any("parent" in p for p in problems)


class TestDisabledOverhead:
    def test_disabled_path_is_cheap(self):
        """The always-compiled-in disabled checks must cost an
        instrumented hot loop under 2% of its runtime."""
        import numpy as np

        from repro.ml import GradientBoostingClassifier

        n_calls = 20_000
        start = time.perf_counter()
        for _ in range(n_calls):
            with obs.span("noop"):
                pass
            obs.incr("noop_c")
            obs.observe("noop_h", 1.0)
        per_site_s = (time.perf_counter() - start) / (3 * n_calls)

        rng = np.random.default_rng(0)
        X = rng.random((200, 17))
        y = rng.integers(0, 4, 200)
        n_estimators = 8
        start = time.perf_counter()
        GradientBoostingClassifier(n_estimators=n_estimators, max_depth=4).fit(X, y)
        fit_s = time.perf_counter() - start

        # Bill every boosting round three full disabled primitives — a
        # deliberate overestimate (the fit hoists the enabled() check).
        rounds = n_estimators * 4
        overhead = rounds * 3 * per_site_s / fit_s
        assert overhead < 0.02, (
            f"disabled obs overhead {100 * overhead:.2f}% >= 2% "
            f"(per-site {1e9 * per_site_s:.0f}ns, fit {fit_s:.3f}s)"
        )

    def test_enable_disable_toggles(self):
        assert not obs.enabled()
        obs.enable()
        assert obs.enabled()
        with obs.span("x"):
            pass
        obs.disable(reset=True)
        assert not obs.enabled()
        assert obs.snapshot()["spans"] == {}
