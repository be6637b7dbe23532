"""Tracked performance-benchmark harness (``repro-spmv perf``).

Times the hot paths this repo's growth loop watches and writes a
``BENCH_<date>.json`` at the repo root so speedups (and regressions)
leave a tracked trail:

* **analysis per matrix** — the unified one-pass analyzer
  (:func:`repro.analysis.analyze_matrix`) against the frozen two-pass
  reference (separate profile + feature scans, four ``np.unique`` full
  sorts), over a corpus sample.
* **label per matrix** — :func:`repro.core.labeling.label_matrix` end to
  end, before (explicit two-pass profile/features) vs after (the shared
  ``executor.analyze`` scan).
* **batched estimate** — the cost-model fleet sweep: a per-pair loop
  of :func:`repro.gpu.kernels.estimate_time` (each call a batch of one)
  vs one :func:`repro.gpu.batch.estimate_batch` call over the same N×F
  (matrices × formats) grid.
* **tree fit / boosting fit** — ``presort=False`` (the historical
  per-node sorting implementation) vs ``presort=True`` (root presort +
  stable partition; see :mod:`repro.ml.tree`) on the repo's labeled
  dataset at the configured scale.
* **ml inference** — the compiled flat-array inference engine
  (:mod:`repro.ml.compiled`): fused ensemble traversal vs the node-graph
  reference walk at serving-shaped batch sizes (1/16/256), plus the
  one-off lowering cost.
* **serving** — model-registry save/load and end-to-end decision
  latency of :mod:`repro.serve`, both through the in-process
  :class:`~repro.serve.service.SelectionService` API and through the
  JSON-lines daemon path the ``repro-spmv serve --daemon`` CLI runs.
* **adaptive loop** — the online-learning loop's serving cost: p95
  decision latency with a live shadow candidate scoring every batch vs
  the bare service (budget: ≤10% added p95), plus candidate-training
  and promotion cycle times.
* **serving under concurrency** — the multi-client load generator
  (:mod:`repro.bench.loadgen`) against a live
  :class:`~repro.serve.server.SelectionServer` socket: ≥8 concurrent
  connections, sustained throughput, p99 round-trip latency and the
  cross-client micro-batch sizes the server actually formed.
* **obs overhead** — the :mod:`repro.obs` telemetry spine's cost, both
  the disabled fast path (the repo's ≤2% guard) and full tracing.
* **campaign end-to-end** — wall time of a tiny measurement campaign,
  the integration number everything above feeds.
* **tuning** — joint format+parameter auto-tuning headroom
  (:mod:`repro.tuning`): labels a small campaign over
  ``tuning.tuned_space()`` and reports the geometric-mean speedup of
  the per-matrix best tuned configuration over the best all-default
  format (the ``before``/``after`` columns are the mean best-default
  and best-tuned kernel times).

The *reference workload* is the repository's own default benchmark
scale (``REPRO_SCALE=0.1`` → ~219 matrices × 17 features), i.e. the
dataset the test/bench suite actually trains on.  ``--quick`` shrinks
every section to a seconds-long smoke run (same code paths, smaller
samples) for use in the verify flow.

All before/after pairs are *numerically equivalent by construction* —
the equivalence is asserted bit-for-bit by
``tests/test_analysis_equivalence.py`` and
``tests/test_ml_presort_equivalence.py``; this harness only measures.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

__all__ = ["run_benchmarks", "main"]

SCHEMA = "repro-perf-bench/v1"


def _best_of(fn: Callable[[], None], repeats: int) -> float:
    """Best wall time of ``repeats`` calls (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _speedup(before: float, after: float) -> float:
    return before / after if after > 0 else float("inf")


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def _bench_analysis(matrices: Sequence, repeats: int) -> Dict:
    """One-pass analyzer vs the frozen two-pass reference."""
    from ..analysis import (
        analyze_matrix,
        extract_features_two_pass,
        profile_matrix_two_pass,
    )

    def before() -> None:
        for m in matrices:
            profile_matrix_two_pass(m)
            extract_features_two_pass(m)

    def after() -> None:
        for m in matrices:
            analyze_matrix(m)

    t0 = _best_of(before, repeats)
    t1 = _best_of(after, repeats)
    n = len(matrices)
    return {
        "n_matrices": n,
        "before_ms_per_matrix": 1e3 * t0 / n,
        "after_ms_per_matrix": 1e3 * t1 / n,
        "speedup": _speedup(t0, t1),
    }


def _bench_labeling(
    matrices: Sequence, names: Sequence[str], device, precision: str,
    reps: int, repeats: int,
) -> Dict:
    """label_matrix end to end, two-pass scans vs the shared analysis."""
    from ..analysis import extract_features_two_pass, profile_matrix_two_pass
    from ..core.labeling import label_matrix
    from ..gpu import SpMVExecutor

    def before() -> None:
        # The pre-refactor shape: separate profile + feature scans, then
        # label with both passed explicitly (skips executor.analyze).
        ex = SpMVExecutor(device, precision)
        for m, name in zip(matrices, names):
            prof = profile_matrix_two_pass(m)
            feats = extract_features_two_pass(m)
            label_matrix(ex, m, name=name, reps=reps, profile=prof, features=feats)

    def after() -> None:
        ex = SpMVExecutor(device, precision)
        for m, name in zip(matrices, names):
            label_matrix(ex, m, name=name, reps=reps)

    t0 = _best_of(before, repeats)
    t1 = _best_of(after, repeats)
    n = len(matrices)
    return {
        "n_matrices": n,
        "reps": reps,
        "before_ms_per_matrix": 1e3 * t0 / n,
        "after_ms_per_matrix": 1e3 * t1 / n,
        "speedup": _speedup(t0, t1),
    }


def _bench_batched_estimate(matrices: Sequence, repeats: int) -> Dict:
    """Cost-model sweep: per-pair ``estimate_time`` loop vs one batch.

    Both sides run the same models: each ``estimate_time`` call is a
    batch of one, so the "before" side pays the per-call packing and
    dispatch N×F times.  Profiling is hoisted out of both sides (the
    batch API takes profiles too), so the number isolates model
    evaluation — the part ``benchmark_batch`` and campaign labeling
    vectorise.
    """
    from ..gpu import DEVICES, ProfileBatch, estimate_batch, profile_matrix
    from ..gpu.kernels import KERNEL_MODELS, estimate_time

    device = DEVICES["v100"]
    n = 64
    profiles = [profile_matrix(matrices[i % len(matrices)]) for i in range(n)]
    batch = ProfileBatch.from_profiles(profiles)
    formats = tuple(KERNEL_MODELS)

    def before() -> None:
        for prof in profiles:
            for fmt in formats:
                estimate_time(fmt, prof, device, "single")

    def after() -> None:
        estimate_batch(batch, formats, device, "single")

    t0 = _best_of(before, repeats)
    t1 = _best_of(after, repeats)
    pairs = n * len(formats)
    return {
        "n_matrices": n,
        "n_formats": len(formats),
        "n_pairs": pairs,
        "before_s": t0,
        "after_s": t1,
        "before_ms_per_pair": 1e3 * t0 / pairs,
        "after_ms_per_pair": 1e3 * t1 / pairs,
        "speedup": _speedup(t0, t1),
    }


def _bench_tree_fit(X: np.ndarray, y: np.ndarray, repeats: int) -> Dict:
    """CART fit: per-node sorting (presort=False) vs root presort."""
    from ..ml import DecisionTreeClassifier

    t0 = _best_of(
        lambda: DecisionTreeClassifier(max_depth=16, presort=False).fit(X, y), repeats
    )
    t1 = _best_of(
        lambda: DecisionTreeClassifier(max_depth=16, presort=True).fit(X, y), repeats
    )
    return {
        "n_samples": int(X.shape[0]),
        "n_features": int(X.shape[1]),
        "before_s": t0,
        "after_s": t1,
        "speedup": _speedup(t0, t1),
    }


def _bench_boosting_fit(
    X: np.ndarray, y: np.ndarray, n_estimators: int, repeats: int
) -> Dict:
    """XGBoost-style fit: per-node sorting vs hoisted fit-wide presort."""
    from ..ml import GradientBoostingClassifier

    def fit(presort: bool) -> None:
        GradientBoostingClassifier(
            n_estimators=n_estimators, max_depth=6, presort=presort
        ).fit(X, y)

    t0 = _best_of(lambda: fit(False), repeats)
    t1 = _best_of(lambda: fit(True), repeats)
    return {
        "n_samples": int(X.shape[0]),
        "n_features": int(X.shape[1]),
        "n_estimators": n_estimators,
        "before_s": t0,
        "after_s": t1,
        "speedup": _speedup(t0, t1),
    }


def _bench_ml_inference(X: np.ndarray, y: np.ndarray, quick: bool,
                        repeats: int) -> Dict:
    """Compiled flat-array inference vs the node-graph reference walk.

    Fits a gradient-boosted classifier (the paper's best model family —
    also the deepest ensemble: ``n_estimators × n_classes`` trees), then
    times ``decision_function`` at serving-shaped batch sizes with the
    compiled table active vs forced onto the node path
    (:func:`repro.ml.compiled.node_path`).  Both paths are bit-identical
    by construction (asserted by ``tests/test_ml_compiled.py``); the
    one-off lowering cost is reported as ``compile_ms``.
    """
    from ..ml import GradientBoostingClassifier
    from ..ml import compiled as _compiled

    n_estimators = 10 if quick else 40
    model = GradientBoostingClassifier(n_estimators=n_estimators, max_depth=6)
    model.fit(X, y)
    compile_s = _best_of(model._compile, max(repeats, 3))
    table = model.compiled_

    rng = np.random.default_rng(0)
    batches: Dict[str, Dict] = {}
    out: Dict = {
        "n_estimators": n_estimators,
        "n_classes": int(model.n_classes_),
        "n_trees": int(table.n_trees),
        "table_nodes": int(table.n_nodes),
        "table_max_depth": int(table.max_depth),
        "compile_ms": 1e3 * compile_s,
        "batches": batches,
    }
    for size in (1, 16, 256):
        Xb = X[rng.integers(0, X.shape[0], size)]
        inner = max(1, 256 // size)

        def compiled_run() -> None:
            for _ in range(inner):
                model.decision_function(Xb)

        def node_run() -> None:
            with _compiled.node_path():
                compiled_run()

        t0 = _best_of(node_run, repeats)
        t1 = _best_of(compiled_run, repeats)
        batches[str(size)] = {
            "node_ms_per_batch": 1e3 * t0 / inner,
            "compiled_ms_per_batch": 1e3 * t1 / inner,
            "speedup": _speedup(t0, t1),
        }
        if size == 16:
            # The acceptance batch size doubles as the section headline.
            out["before_s"] = t0
            out["after_s"] = t1
            out["speedup"] = _speedup(t0, t1)
    return out


def _bench_serving(ds, matrices: Sequence, quick: bool) -> Dict:
    """Registry save/load plus end-to-end serving latency.

    Trains a small selector, round-trips it through a throwaway
    registry, then serves requests two ways: the in-process
    :class:`~repro.serve.service.SelectionService` API (cold = feature
    extraction + model, warm = decision-cache hit) and the JSON-lines
    daemon path the ``repro-spmv serve --daemon`` CLI runs.
    """
    import io
    import tempfile

    from ..core.selector import FormatSelector
    from ..features import extract_features
    from ..serve import ModelRegistry, SelectionService, serve_jsonl

    selector = FormatSelector("decision_tree", feature_set="set123").fit(ds)
    n_requests = 20 if quick else 100
    requests = [matrices[i % len(matrices)] for i in range(n_requests)]

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        start = time.perf_counter()
        registry.save(selector, "bench", dataset=ds, promote=True)
        save_s = time.perf_counter() - start
        start = time.perf_counter()
        model, _ = registry.load("bench")
        load_s = time.perf_counter() - start

        service = SelectionService(model)
        start = time.perf_counter()
        for m in requests:
            service.predict(m)
        direct_wall = time.perf_counter() - start
        snap = service.telemetry.snapshot()

        # The CLI daemon path: one JSON-lines predict request per matrix.
        daemon_service = SelectionService(model)
        lines = [
            json.dumps({"op": "predict", "features": extract_features(m)})
            for m in requests
        ]
        sink = io.StringIO()
        start = time.perf_counter()
        served = serve_jsonl(daemon_service, lines, sink)
        daemon_wall = time.perf_counter() - start

    # Separate obs-enabled pass: the serve.predict_ms histogram costs a
    # little to record, so it is sampled outside the timed runs above.
    from .. import obs

    obs.disable(reset=True)
    obs.enable()
    try:
        obs_service = SelectionService(model)
        for m in requests:
            obs_service.predict(m)
        predict_ms = obs.snapshot()["metrics"]["serve.predict_ms"]
    finally:
        obs.disable(reset=True)

    return {
        "n_requests": n_requests,
        "predict_ms_histogram": {
            k: predict_ms[k] for k in ("count", "mean", "p50", "p95", "max")
        },
        "registry_save_ms": 1e3 * save_s,
        "registry_load_ms": 1e3 * load_s,
        "direct_ms_per_request": 1e3 * direct_wall / n_requests,
        "latency_ms_p50": snap["latency_ms"]["p50"],
        "latency_ms_p95": snap["latency_ms"]["p95"],
        "feature_cache_hit_rate": snap["feature_cache"]["hit_rate"],
        "decision_cache_hit_rate": snap["decision_cache"]["hit_rate"],
        "daemon_requests_served": served,
        "daemon_ms_per_request": 1e3 * daemon_wall / n_requests,
        "wall_s": direct_wall + daemon_wall,
    }


def _bench_adaptive(ds, quick: bool) -> Dict:
    """Adaptive-loop cost: shadow-evaluation overhead + cycle timings.

    Drives the same predict→feedback traffic twice — once against a
    bare :class:`~repro.serve.service.SelectionService`, once with an
    :class:`~repro.serve.adaptive.AdaptiveController` attached and a
    live shadow candidate scoring every batch — and compares p95
    decision latency.  The loop's budget is ≤10% added p95
    (``target_added_p95_pct``); train/promote cycle times are reported
    alongside.
    """
    import tempfile

    from ..core.selector import FormatSelector
    from ..serve import (
        AdaptiveController,
        ModelRegistry,
        PromotionPolicy,
        SelectionService,
    )

    n_requests = 60 if quick else 400
    n = len(ds)
    vectors = [ds.feature_array[i % n] for i in range(n_requests)]
    observed = [
        {f: float(t) for f, t in zip(ds.formats, ds.times[i % n])}
        for i in range(n_requests)
    ]

    def drive(service) -> Dict:
        # Client-side per-predict latency: the service's own telemetry
        # stamps latency *before* the adaptive hook runs, so only the
        # caller's clock sees the shadow-scoring cost being measured.
        lat = []
        start = time.perf_counter()
        for vec, times in zip(vectors, observed):
            t0 = time.perf_counter()
            decision = service.predict(vec)
            lat.append(time.perf_counter() - t0)
            service.record_feedback(decision.request_id, times)
        wall = time.perf_counter() - start
        return {"wall_s": wall, "p95": 1e3 * float(np.percentile(lat, 95))}

    selector = FormatSelector("decision_tree", feature_set="set123").fit(ds)
    baseline = drive(SelectionService(selector))

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        registry.save(selector, "bench", dataset=ds, promote=True)
        model, _ = registry.load("bench")
        service = SelectionService(model)
        controller = AdaptiveController(
            service,
            registry,
            "bench",
            policy=PromotionPolicy(min_samples=8, min_improvement=-1.0),
            min_train_rows=8,
            auto=False,
        )
        # Warm up enough experience for a candidate, install the shadow,
        # then measure with fresh latency telemetry so the p95 reflects
        # steady-state serving *with* shadow scoring on every batch.
        warm = min(16, n_requests)
        for vec, times in zip(vectors[:warm], observed[:warm]):
            decision = service.predict(vec)
            service.record_feedback(decision.request_id, times)
        start = time.perf_counter()
        controller.train_candidate(force=True)
        train_s = time.perf_counter() - start
        shadowed = drive(service)
        start = time.perf_counter()
        controller.promote(force=True, reason="bench")
        promote_s = time.perf_counter() - start

    added_pct = (
        100.0 * (shadowed["p95"] - baseline["p95"]) / baseline["p95"]
        if baseline["p95"] > 0 else 0.0
    )
    return {
        "n_requests": n_requests,
        "baseline_p95_ms": baseline["p95"],
        "shadow_p95_ms": shadowed["p95"],
        "added_p95_pct": added_pct,
        "target_added_p95_pct": 10.0,
        "baseline_ms_per_request": 1e3 * baseline["wall_s"] / n_requests,
        "shadow_ms_per_request": 1e3 * shadowed["wall_s"] / n_requests,
        "train_candidate_ms": 1e3 * train_s,
        "promote_ms": 1e3 * promote_s,
        "wall_s": baseline["wall_s"] + shadowed["wall_s"] + train_s,
    }


def _bench_serving_concurrent(ds, quick: bool) -> Dict:
    """Concurrent socket serving: throughput/p99 under ≥8 clients.

    Starts a :class:`~repro.serve.server.SelectionServer` on a free
    port and drives it with the multi-client load generator.  Payloads
    cycle the bench dataset's feature vectors, so concurrent clients
    mix cache hits and misses and their requests land in shared
    micro-batches (``batch_size_max > 1`` is the cross-client batching,
    observed server-side).
    """
    from ..core.selector import FormatSelector
    from ..serve import SelectionServer, SelectionService
    from .loadgen import run_load

    selector = FormatSelector("decision_tree", feature_set="set123").fit(ds)
    service = SelectionService(selector)
    server = SelectionServer(
        service, port=0, max_batch=64, batch_window_s=0.002, queue_size=1024
    )
    server.start()
    n_clients = 8 if quick else 16
    per_client = 25 if quick else 200
    payloads = [
        json.dumps({"op": "predict", "vector": row.tolist()})
        for row in ds.feature_array
    ]
    try:
        load = run_load(
            server.address, payloads,
            n_clients=n_clients, requests_per_client=per_client,
        )
    finally:
        server.shutdown(drain=True)
    snap = service.telemetry.snapshot()
    return {
        "n_clients": n_clients,
        "requests_total": load["requests_total"],
        "ok": load["ok"],
        "errors": load["errors"],
        "busy": load["busy"],
        "client_failures": load["client_failures"],
        "throughput_rps": load["throughput_rps"],
        "latency_ms_mean": load["latency_ms"]["mean"],
        "latency_ms_p50": load["latency_ms"]["p50"],
        "latency_ms_p95": load["latency_ms"]["p95"],
        "latency_ms_p99": load["latency_ms"]["p99"],
        "batch_size_max": snap["batch_size"]["max"],
        "batch_size_mean": snap["batch_size"]["mean"],
        "batches_gt1": snap["batch_size"]["gt1"],
        "decision_cache_hit_rate": snap["decision_cache"]["hit_rate"],
        "wall_s": load["wall_s"],
    }


def _bench_obs_overhead(X: np.ndarray, y: np.ndarray, quick: bool,
                        repeats: int) -> Dict:
    """Cost of the telemetry spine, disabled (the default) and enabled.

    Two views:

    * **primitive cost** — a tight loop over the three instrumentation
      shapes the hot paths use (``with obs.span(...)``, ``incr``,
      ``observe``), timed with obs disabled and enabled;
    * **workload cost** — an instrumented real fit (gradient boosting,
      which carries per-round obs calls) timed both ways, plus a
      conservative estimate of what the *disabled* checks cost it:
      every per-round site billed at the full disabled-primitive price.

    ``disabled_overhead_pct`` is the repo's ≤2% guard number.
    """
    from .. import obs
    from ..ml import GradientBoostingClassifier

    obs.disable(reset=True)
    n_calls = 50_000 if quick else 200_000

    def primitives() -> None:
        for _ in range(n_calls):
            with obs.span("bench.noop"):
                pass
            obs.incr("bench.counter")
            obs.observe("bench.hist", 1e-3)

    disabled_s = _best_of(primitives, repeats)
    obs.enable()
    try:
        enabled_s = _best_of(primitives, repeats)
    finally:
        obs.disable(reset=True)

    n_estimators = 8 if quick else 40

    def fit() -> None:
        GradientBoostingClassifier(n_estimators=n_estimators, max_depth=6).fit(X, y)

    fit_disabled = _best_of(fit, repeats)
    obs.enable()
    try:
        fit_enabled = _best_of(fit, repeats)
    finally:
        obs.disable(reset=True)

    sites = 3 * n_calls
    disabled_ns = 1e9 * disabled_s / sites
    # One boosting round per (estimator, class); each round holds the
    # instrumented sites.  Bill every round three disabled primitives —
    # an overestimate (the fit hoists the enabled() check), so the guard
    # number is an upper bound on real disabled overhead.
    rounds = n_estimators * len(np.unique(y))
    disabled_overhead_pct = 100.0 * (rounds * 3 * disabled_ns * 1e-9) / fit_disabled
    return {
        "n_primitive_calls": sites,
        "disabled_ns_per_site": disabled_ns,
        "enabled_ns_per_site": 1e9 * enabled_s / sites,
        "fit_disabled_s": fit_disabled,
        "fit_enabled_s": fit_enabled,
        "enabled_overhead_pct": 100.0 * max(0.0, fit_enabled - fit_disabled)
        / fit_disabled,
        "disabled_overhead_pct": disabled_overhead_pct,
    }


def _bench_tuning(scale: float, max_nnz: int, device) -> Dict:
    """Tuned-vs-default headroom of the joint configuration space.

    One campaign labeled over the full tuning grid suffices: the
    default baseline is read off the same dataset's all-default
    columns, so tuned and default candidates see the same matrices,
    the same structural noise draw and the same rep count — a paired
    comparison, not two runs.
    """
    from .. import tuning
    from .campaign import run_campaign
    from ..matrices import SyntheticCorpus

    corpus = SyntheticCorpus(scale=scale, seed=0, max_nnz=max_nnz)
    start = time.perf_counter()
    ds = run_campaign(
        corpus, device, "single", tuned=True, reps=10, workers=1
    ).to_dataset()
    wall = time.perf_counter() - start
    summary = tuning.tuned_vs_default_speedup(ds.times, ds.formats)
    default_cols = [j for j, f in enumerate(ds.formats) if "?" not in f]
    best_default = np.min(ds.times[:, default_cols], axis=1)
    best_tuned = np.min(ds.times, axis=1)
    return {
        "n_matrices": int(len(ds)),
        "n_configs": len(ds.formats),
        "before_s": float(np.mean(best_default)),
        "after_s": float(np.mean(best_tuned)),
        "speedup": summary["geomean"],
        "max_speedup": summary["max"],
        "tuned_wins": summary["tuned_wins"],
        "wall_s": wall,
    }


def _bench_campaign(scale: float, max_nnz: int, device) -> Dict:
    """Wall time of one tiny end-to-end measurement campaign."""
    from .campaign import run_campaign
    from ..matrices import SyntheticCorpus

    corpus = SyntheticCorpus(scale=scale, seed=0, max_nnz=max_nnz)
    start = time.perf_counter()
    result = run_campaign(corpus, device, "single", reps=10, workers=1)
    wall = time.perf_counter() - start
    return {
        "scale": scale,
        "n_matrices": len(corpus),
        "n_ok": result.n_ok,
        "wall_s": wall,
        "ms_per_matrix": 1e3 * wall / max(1, len(corpus)),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_benchmarks(quick: bool = False) -> Dict:
    """Run every section and return the report dict."""
    from .runner import bench_config
    from ..gpu import DEVICES
    from ..matrices import SyntheticCorpus

    cfg = bench_config()
    device = DEVICES["k40c"]

    # Corpus sample for the per-matrix sections.  Corpus entries are
    # ordered by size family, so stride-sampling (not truncation) keeps
    # the realistic nnz distribution — including the large tail where
    # analysis time actually concentrates.
    sample_n = 12 if quick else 96
    max_nnz = 200_000 if quick else cfg.max_nnz
    corpus = SyntheticCorpus(scale=cfg.scale, seed=cfg.seed, max_nnz=max_nnz)
    entries = list(corpus)
    entries = entries[:: max(1, len(entries) // sample_n)][:sample_n]
    matrices = [e.build() for e in entries]
    names = [e.name for e in entries]
    repeats = 1 if quick else 3

    sections: Dict[str, Dict] = {}
    sections["analysis_per_matrix"] = _bench_analysis(matrices, repeats)
    sections["label_per_matrix"] = _bench_labeling(
        matrices, names, device, "single", reps=10 if quick else 50, repeats=repeats
    )

    # The ML reference workload: the repo's labeled dataset at the
    # configured bench scale (default REPRO_SCALE=0.1 → ~219 matrices).
    from .campaign import run_campaign

    train_scale = 0.02 if quick else cfg.scale
    train_corpus = SyntheticCorpus(scale=train_scale, seed=cfg.seed, max_nnz=max_nnz)
    ds = run_campaign(
        train_corpus, device, "single", reps=10, workers=1
    ).to_dataset()
    X, y = ds.feature_array, ds.labels

    sections["batched_estimate"] = _bench_batched_estimate(matrices, repeats)
    sections["tree_fit"] = _bench_tree_fit(X, y, repeats)
    sections["boosting_fit"] = _bench_boosting_fit(
        X, y, n_estimators=8 if quick else 40, repeats=repeats
    )
    sections["ml_inference"] = _bench_ml_inference(X, y, quick, repeats)
    sections["serving"] = _bench_serving(ds, matrices, quick)
    sections["adaptive_loop"] = _bench_adaptive(ds, quick)
    sections["serving_concurrent"] = _bench_serving_concurrent(ds, quick)
    sections["obs_overhead"] = _bench_obs_overhead(X, y, quick, repeats)
    sections["campaign_e2e"] = _bench_campaign(
        0.005 if quick else 0.02, max_nnz, device
    )
    sections["tuning"] = _bench_tuning(
        0.005 if quick else 0.02, max_nnz, device
    )

    return {
        "schema": SCHEMA,
        "generated": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": {
            "scale": cfg.scale,
            "train_scale": train_scale,
            "sample_matrices": len(matrices),
            "train_matrices": int(X.shape[0]),
            "max_nnz": max_nnz,
        },
        "sections": sections,
    }


def _render(report: Dict) -> str:
    lines = [
        f"perf benchmark ({'quick' if report['quick'] else 'full'}) — "
        f"python {report['python']}, numpy {report['numpy']}",
    ]
    rows: List[tuple] = []
    for name, sec in report["sections"].items():
        if "speedup" in sec:
            if "before_ms_per_matrix" in sec:
                before = f"{sec['before_ms_per_matrix']:.2f} ms"
                after = f"{sec['after_ms_per_matrix']:.2f} ms"
            else:
                before = f"{sec['before_s']:.3f} s"
                after = f"{sec['after_s']:.3f} s"
            rows.append((name, before, after, f"{sec['speedup']:.2f}x"))
        elif "throughput_rps" in sec:
            rows.append((
                name,
                f"{sec['n_clients']} clients",
                f"{sec['throughput_rps']:.0f} rps",
                f"p99 {sec['latency_ms_p99']:.2f} ms",
            ))
        elif "disabled_overhead_pct" in sec:
            rows.append((
                name,
                f"off {sec['disabled_overhead_pct']:.3f}%",
                f"on {sec['enabled_overhead_pct']:.1f}%",
                f"{sec['disabled_ns_per_site']:.0f} ns",
            ))
        else:
            rows.append((name, "-", f"{sec['wall_s']:.3f} s", "-"))
    widths = [max(len(str(r[i])) for r in rows + [("section", "before", "after", "speedup")])
              for i in range(4)]
    header = ("section", "before", "after", "speedup")
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-spmv perf",
        description="Run the tracked performance benchmarks and write BENCH_<date>.json",
    )
    parser.add_argument("--quick", action="store_true",
                        help="seconds-long smoke run (same code paths, small samples)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output JSON path (default: ./BENCH_<date>.json)")
    args = parser.parse_args(argv)

    report = run_benchmarks(quick=args.quick)
    out = args.out
    if out is None:
        out = Path.cwd() / f"BENCH_{_dt.date.today().isoformat()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(_render(report))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
