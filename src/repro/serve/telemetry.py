"""Serving telemetry: latency, throughput, cache hit rates, regret.

One :class:`ServiceTelemetry` instance aggregates everything a
:class:`~repro.serve.service.SelectionService` observes:

* per-request latency (``serve.request_seconds`` histogram → mean /
  p50 / p95 / p99 over the service lifetime),
* request and batch counts → throughput over the service lifetime,
* batch-size distribution (cross-client micro-batching shows up here:
  a concurrent server funneling many connections through one
  ``predict_batch`` produces batch sizes > 1),
* protocol errors (malformed request lines — counted apart from served
  requests so error floods never distort throughput/latency stats),
* connection lifecycle (opened / active / disconnected mid-request),
* feature- and decision-cache hit rates,
* **regret** versus the oracle, fed by the online feedback loop: for
  each served decision whose observed per-format times come back,
  ``regret = t_chosen / t_best - 1`` (0 = the service picked the
  measured-fastest format).  An exponentially weighted mean is kept in
  the ``serve.regret_ewma`` gauge; the mean, p95 and oracle-hit rate
  are read off the service's :class:`~repro.serve.feedback.FeedbackLog`
  window.

Every number lives in exactly one :mod:`repro.obs` metric object.  The
instance builds its own ``serve.*`` objects and publishes them in the
process registry (replacing any earlier service's), so the daemon's
``stats`` and ``metrics`` ops read the same objects, while two services
in one process keep separate stats.  The objects are always live,
independent of ``obs.enabled()``, because serving telemetry must stay
exact whether or not tracing is on.  :meth:`snapshot` is a view over
them and returns a plain dict for JSON responses and bench reports.
"""

from __future__ import annotations

import threading
import time
from typing import Dict

import numpy as np

from .. import obs
from .feedback import FeedbackLog

__all__ = ["ServiceTelemetry"]

#: Smoothing factor of the exponentially weighted regret estimate.
EWMA_ALPHA = 0.1


class ServiceTelemetry:
    """Thread-safe serving counters, stored as published obs metrics.

    ``feedback`` is the service's feedback log; the regret mean, p95
    and oracle-hit rate of :meth:`snapshot` cover its retained window.
    """

    def __init__(self, feedback: FeedbackLog) -> None:
        self.feedback = feedback
        self._start = time.perf_counter()
        self._ewma_lock = threading.Lock()
        publish = obs.get_metrics().publish
        self._requests = publish(obs.Counter("serve.requests"))
        self._errors = publish(obs.Counter("serve.errors"))
        self._connections = publish(obs.Counter("serve.connections"))
        self._disconnects = publish(obs.Counter("serve.disconnects"))
        self._active = publish(obs.Gauge("serve.active_connections"))
        self._batch_size = publish(obs.Histogram(
            "serve.batch_size", (1, 2, 4, 8, 16, 32, 64, 128)))
        self._latency = publish(obs.Histogram("serve.request_seconds"))
        self._n_feedback = publish(obs.Counter("serve.feedback"))
        self._regret_ewma = publish(obs.Gauge("serve.regret_ewma"))
        self._cache = {
            name: publish(obs.Counter(f"serve.{name}"))
            for name in ("feature_cache_hits", "feature_cache_misses",
                         "decision_cache_hits", "decision_cache_misses")
        }

    # -- recording ---------------------------------------------------------

    def record_batch(
        self,
        n_requests: int,
        latency_s: float,
        *,
        feature_hits: int = 0,
        feature_misses: int = 0,
        decision_hits: int = 0,
        decision_misses: int = 0,
    ) -> None:
        """Account one (possibly single-request) prediction batch."""
        self._requests.inc(n_requests)
        self._batch_size.observe(n_requests)
        for name, n in (("feature_cache_hits", feature_hits),
                        ("feature_cache_misses", feature_misses),
                        ("decision_cache_hits", decision_hits),
                        ("decision_cache_misses", decision_misses)):
            if n:
                self._cache[name].inc(n)
        per_request = latency_s / max(1, n_requests)
        for _ in range(n_requests):
            self._latency.observe(per_request)

    def record_protocol_error(self) -> None:
        """Account one malformed request line (not a served request)."""
        self._errors.inc()

    def record_connection_open(self) -> None:
        """Account one accepted client connection."""
        self._connections.inc()
        self._active.inc()

    def record_connection_close(self, *, disconnected: bool = False) -> None:
        """Account one finished connection (``disconnected`` = the peer
        vanished mid-request or a write to it failed)."""
        self._active.inc(-1)
        if disconnected:
            self._disconnects.inc()

    def record_regret(self, regret: float) -> None:
        """Account one feedback observation (regret ≥ 0 vs the oracle)."""
        regret = max(0.0, float(regret))
        with self._ewma_lock:
            ewma = self._regret_ewma.value if self._n_feedback.value else regret
            self._regret_ewma.set(EWMA_ALPHA * regret + (1.0 - EWMA_ALPHA) * ewma)
            self._n_feedback.inc()

    # -- reading -----------------------------------------------------------

    def _cache_view(self, kind: str) -> Dict:
        hits = int(self._cache[f"{kind}_cache_hits"].value)
        misses = int(self._cache[f"{kind}_cache_misses"].value)
        total = hits + misses
        return {"hits": hits, "misses": misses,
                "hit_rate": hits / total if total else 0.0}

    def snapshot(self) -> Dict:
        """Current counters as a JSON-able dict."""
        uptime = time.perf_counter() - self._start
        requests = int(self._requests.value)
        sizes = self._batch_size.snapshot()
        lat = self._latency.snapshot()
        n_feedback = int(self._n_feedback.value)
        regrets = np.array([e.regret for e in self.feedback.events()])
        return {
            "uptime_s": uptime,
            "requests": requests,
            "batches": sizes["count"],
            "protocol_errors": int(self._errors.value),
            "throughput_rps": requests / uptime if uptime > 0 else 0.0,
            "batch_size": {
                "max": int(sizes["max"]),
                "mean": sizes["mean"],
                "gt1": sizes["count"] - sizes["buckets"].get("1", 0),
            },
            "connections": {
                "total": int(self._connections.value),
                "active": int(self._active.value),
                "disconnects": int(self._disconnects.value),
            },
            "latency_ms": {k: 1e3 * lat[k] for k in ("mean", "p50", "p95", "p99")},
            "feature_cache": self._cache_view("feature"),
            "decision_cache": self._cache_view("decision"),
            "feedback": {
                "count": n_feedback,
                "regret_mean": float(regrets.mean()) if regrets.size else 0.0,
                "regret_p95": (float(np.percentile(regrets, 95))
                               if regrets.size else 0.0),
                "regret_ewma": self._regret_ewma.value if n_feedback else None,
                "oracle_hit_rate": (float(np.mean(regrets <= 1e-12))
                                    if regrets.size else 0.0),
            },
        }
