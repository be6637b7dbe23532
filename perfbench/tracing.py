"""In-memory span tracer wrapped around the public calls of each layer.

The benchmark measures layers from outside the package: while a
:class:`Tracer` is installed, selected public functions and methods of
``repro`` are replaced by wrappers that record one span per call (name,
start, end, parent) plus counters read off the call's arguments and
result.  Nothing inside the package changes; :meth:`Tracer.uninstall`
puts every original back.

A layer's self time is its spans' duration minus the part covered by
their child spans, so the self times of all spans under a round's root
span add up to the round's duration exactly.  The root's own self time
is what no layer covers; :func:`layer_metrics` checks that it is a
small share of the traced wall time.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import analysis, tuning
from repro.bench import campaign
from repro.core.selector import FormatSelector
from repro.formats import CSRMatrix
from repro.gpu import SpMVExecutor
from repro.gpu import batch as gpu_batch
from repro.matrices import CorpusEntry
from repro.serve import adaptive, daemon, registry, service, telemetry

#: Largest allowed share of the traced wall time that no layer span
#: covers.  Measured gaps are at most 0.0014 (``decide``, whose own
#: loop times every call), so 0.01 leaves room for host noise while a
#: layer call left unwrapped in any workload still fails the check.
COVERAGE_TOLERANCE = 0.01

_clock = time.perf_counter


class Tracer:
    """Records spans while :attr:`active`; keeps them in memory."""

    def __init__(self) -> None:
        self.active = False
        # One column entry per span: name, start, end, parent index.
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.names.append(name)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(_clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = _clock()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``count(result, *args, **kw)`` adds
        counters (a dict) taken from the call when given."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.counts.update(count(result, *args, **kwargs))
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (module function, method or classmethod)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, count))
        else:
            new = self.wrap(raw, name, count)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def install(self) -> "Tracer":
        """Wrap the public calls of every layer the workloads reach."""
        p = self.patch
        p(campaign, "run_campaign", "campaign.run")
        p(CorpusEntry, "build", "matrices.build",
          lambda m, *a, **k: {"matrices.nnz": int(m.nnz)})
        p(CSRMatrix, "from_coo", "formats.to_csr",
          lambda r, *a, **k: {"formats.to_csr_calls": 1})
        for module in (analysis, service):  # service binds it at import
            p(module, "analyze_matrix", "analysis.analyze",
              lambda r, *a, **k: {"analysis.calls": 1})
        p(SpMVExecutor, "benchmark_batch", "gpu.label")
        p(gpu_batch, "estimate_batch", "gpu.estimate", _count_pairs)
        p(SpMVExecutor, "feasibility_batch", "gpu.feasibility", _count_infeasible)
        p(tuning.Configuration, "from_key", "tuning.key_parse",
          lambda r, *a, **k: {"tuning.key_parses": 1})
        p(FormatSelector, "fit", "ml.fit")
        p(FormatSelector, "warm_fit", "ml.warm_fit")
        p(FormatSelector, "predict", "ml.predict", _count_predict)
        p(daemon, "serve_jsonl", "serve.session")
        p(daemon, "handle_request", "serve.request")
        daemon.json = _TracedJson(self)
        self._undo.append(lambda: setattr(daemon, "json", json))
        p(service.SelectionService, "predict_batch", "serve.predict_batch")
        p(service.SelectionService, "record_feedback", "serve.feedback",
          lambda r, *a, **k: {"serve.feedback_events": 1})
        p(service.Decision, "to_dict", "serve.encode")
        p(telemetry.ServiceTelemetry, "record_batch", "serve.telemetry", _count_hits)
        p(telemetry.ServiceTelemetry, "record_regret", "serve.telemetry")
        p(adaptive.AdaptiveController, "observe_batch", "adaptive.observe")
        p(adaptive.AdaptiveController, "observe_feedback", "adaptive.observe")
        p(adaptive.AdaptiveController, "train_candidate", "adaptive.train",
          lambda r, *a, **k: {"adaptive.trainings": int(r is not None)})
        p(adaptive.AdaptiveController, "promote", "adaptive.promote",
          lambda r, *a, **k: {"adaptive.promotions": 1})
        p(registry.ModelRegistry, "save", "registry.save", _count_save)
        p(registry.ModelRegistry, "load", "registry.load",
          lambda r, *a, **k: {"registry.loads": 1})
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def columns(self):
        """``(table, name_code, start, end, parent)`` arrays of all spans."""
        table, code = np.unique(np.array(self.names, dtype=object).astype(str),
                                return_inverse=True)
        return (table, code, np.frombuffer(self.starts), np.frombuffer(self.ends),
                np.frombuffer(self.parents, dtype=np.int64))

    def write(self, path: Path) -> None:
        """Save every span as compressed columns (``numpy.load`` reads it)."""
        table, code, start, end, parent = self.columns()
        np.savez_compressed(path, names=table, name=code, start=start, end=end,
                            parent=parent)


class _TracedJson:
    """Stand-in for the ``json`` module inside :mod:`repro.serve.daemon`,
    so wire parse and encode are spans of their own."""

    def __init__(self, tracer: Tracer) -> None:
        self.loads = tracer.wrap(json.loads, "serve.wire_parse")
        self.dumps = tracer.wrap(json.dumps, "serve.encode")


# -- counters read at the call boundary -------------------------------------


def _count_pairs(cost, profiles, formats=None, *a, **k) -> Dict[str, int]:
    return {"gpu.pairs": int(cost.seconds.size)}


def _count_infeasible(failures, executor, batch, formats) -> Dict[str, int]:
    return {
        "gpu.feasibility_pairs": len(failures) * len(dict.fromkeys(formats)),
        "gpu.infeasible_pairs": sum(len(f) for f in failures),
    }


def _count_predict(picks, selector, data) -> Dict[str, int]:
    return {"ml.predict_calls": 1, "ml.predict_rows": int(len(picks))}


def _count_hits(_none, telem, n_requests, latency_s, *, feature_hits=0,
                feature_misses=0, decision_hits=0, decision_misses=0) -> Dict[str, int]:
    return {
        "serve.feature_hits": feature_hits,
        "serve.feature_lookups": feature_hits + feature_misses,
        "serve.decision_hits": decision_hits,
        "serve.decision_lookups": decision_hits + decision_misses,
    }


def _count_save(record, reg, *a, **k) -> Dict[str, int]:
    written = sum(f.stat().st_size for f in record.path.iterdir() if f.is_file())
    return {"registry.saves": 1, "registry.bytes_written": written}


# -- reduction ---------------------------------------------------------------


def span_times(tracer: Tracer):
    """Self and inclusive seconds per span name.

    Self time is a span's duration minus its children's; inclusive time
    counts only outermost occurrences, so a span nested in one of the
    same name is not counted twice.
    """
    table, code, start, end, parent = tracer.columns()
    dur = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = np.bincount(code, weights=dur - covered, minlength=len(table))
    outer = ~nested | (code != code[np.where(nested, parent, 0)])
    total = np.bincount(code[outer], weights=dur[outer], minlength=len(table))
    return dict(zip(table, own)), dict(zip(table, total))


def layer_metrics(tracer: Tracer, wall_s: float, ops: int) -> Dict[str, float]:
    """Per-layer metrics: busy ms and counts per workload op.

    Raises ``AssertionError`` when the layer spans' self times miss the
    traced wall time by more than :data:`COVERAGE_TOLERANCE`.  The
    round's own root span is left out of the sum: its self time is the
    time no wrapped layer covers, which is what the check bounds.
    """
    selfs, totals = span_times(tracer)
    c = tracer.counts
    covered = sum(v for k, v in selfs.items() if k != "bench.round")
    gap = abs(wall_s - covered) / wall_s
    if gap > COVERAGE_TOLERANCE:
        raise AssertionError(
            f"span self times cover {covered:.4f}s of {wall_s:.4f}s traced "
            f"wall time (gap {gap:.2%} > {COVERAGE_TOLERANCE:.0%})"
        )
    n = max(1, ops)

    def ms(name: str) -> float:
        return 1e3 * selfs.get(name, 0.0) / n

    def per_op(key: str) -> float:
        return c.get(key, 0) / n

    def share(num: str, den: str) -> float:
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    serve_self = sum(v for k, v in selfs.items() if k.startswith("serve."))
    wire = totals.get("serve.session", 0.0) - totals.get("serve.request", 0.0)
    return {
        "matrices.build_ms": ms("matrices.build"),
        "matrices.nnz": per_op("matrices.nnz"),
        "formats.to_csr_ms": ms("formats.to_csr"),
        "formats.to_csr_calls": per_op("formats.to_csr_calls"),
        "analysis.analyze_ms": ms("analysis.analyze"),
        "analysis.calls": per_op("analysis.calls"),
        "gpu.label_ms": ms("gpu.label"),
        "gpu.estimate_ms": ms("gpu.estimate"),
        "gpu.feasibility_ms": ms("gpu.feasibility"),
        "gpu.pairs": per_op("gpu.pairs"),
        "gpu.infeasible_share": share("gpu.infeasible_pairs", "gpu.feasibility_pairs"),
        "tuning.key_parse_ms": ms("tuning.key_parse"),
        "tuning.key_parses": per_op("tuning.key_parses"),
        "ml.fit_ms": ms("ml.fit"),
        "ml.warm_fit_ms": ms("ml.warm_fit"),
        "ml.predict_ms": ms("ml.predict"),
        "ml.predict_rows": per_op("ml.predict_rows"),
        "ml.predict_calls": per_op("ml.predict_calls"),
        "campaign.overhead_ms": ms("campaign.run"),
        "serve.predict_batch_ms": 1e3 * totals.get("serve.predict_batch", 0.0) / n,
        "serve.self_ms": 1e3 * serve_self / n,
        "serve.feature_hit_rate": share("serve.feature_hits", "serve.feature_lookups"),
        "serve.decision_hit_rate": share("serve.decision_hits", "serve.decision_lookups"),
        "serve.feedback_ms": ms("serve.feedback"),
        "serve.feedback_events": per_op("serve.feedback_events"),
        "serve.telemetry_ms": ms("serve.telemetry"),
        "serve.encode_ms": ms("serve.encode"),
        "serve.wire_ms": 1e3 * wire / n,
        "adaptive.observe_ms": ms("adaptive.observe"),
        "adaptive.train_ms": ms("adaptive.train"),
        "adaptive.trainings": per_op("adaptive.trainings"),
        "adaptive.promote_ms": ms("adaptive.promote"),
        "adaptive.promotions": per_op("adaptive.promotions"),
        "registry.save_ms": ms("registry.save"),
        "registry.saves": per_op("registry.saves"),
        "registry.load_ms": ms("registry.load"),
        "registry.loads": per_op("registry.loads"),
        "registry.bytes_written": per_op("registry.bytes_written"),
        "bench.loop_ms": ms("bench.round"),
        "trace.coverage_gap": gap,
    }
