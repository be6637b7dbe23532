"""Process-wide observability: tracing spans, metrics, exporters.

``repro.obs`` is the single telemetry spine of the reproduction.  Every
layer — the GPU executor, the measurement-campaign engine, the ML
training loops, the serving stack — reports into one process-wide,
thread-safe pair of registries:

* **spans** (:mod:`repro.obs.trace`) — hierarchical wall-time regions
  with a context-manager and decorator API, aggregated by nesting path;
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges and
  fixed-bucket histograms with O(1)-memory quantile estimates;
* **exporters** (:mod:`repro.obs.export`) — JSON snapshots, terminal
  tables and a JSON-lines event sink.

Disabled by default
-------------------
Observability is **off** unless :func:`enable` runs (the CLI's
``--trace`` / ``--metrics-out`` flags do this).  While disabled, every
instrumentation point is a single module-attribute read plus a branch —
``span()`` hands back a shared no-op context manager and the metric
helpers return immediately — so instrumented hot paths stay within ~2%
of their uninstrumented cost (guarded by ``tests/test_obs.py``).

Quickstart
----------
>>> from repro import obs
>>> obs.enable()
>>> with obs.span("demo.outer"):
...     with obs.span("demo.inner"):
...         pass
>>> obs.incr("demo.requests")
>>> snap = obs.snapshot()
>>> sorted(snap["spans"])
['demo.outer', 'demo.outer/demo.inner']
>>> obs.disable(reset=True)
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence

from .export import (  # noqa: F401
    SNAPSHOT_SCHEMA,
    JsonLinesSink,
    check_snapshot,
    render_snapshot,
    snapshot_dict,
)
from .metrics import (  # noqa: F401
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import PATH_SEP, SpanRecorder, SpanStats, make_traced  # noqa: F401

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLinesSink",
    "MetricsRegistry",
    "SpanRecorder",
    "SpanStats",
    "SNAPSHOT_SCHEMA",
    "check_snapshot",
    "counter",
    "disable",
    "emit",
    "enable",
    "enabled",
    "gauge",
    "get_metrics",
    "get_spans",
    "histogram",
    "incr",
    "observe",
    "record_span",
    "render_snapshot",
    "reset",
    "set_gauge",
    "set_sink",
    "snapshot",
    "snapshot_dict",
    "span",
    "traced",
]


class _NullSpan:
    """Shared no-op context manager returned while obs is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    @property
    def path(self) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: Fast-path flag.  Read directly (one module-dict lookup) by every
#: instrumentation helper; flipped only by :func:`enable`/:func:`disable`.
_ENABLED = False

_lock = threading.Lock()
_spans = SpanRecorder()
_metrics = MetricsRegistry()
_sink = None  # JsonLinesSink | callable | None
_sink_owned = False  # _sink is a JsonLinesSink obs built from a path


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def enable(sink=None) -> None:
    """Turn instrumentation on (optionally attaching an event sink).

    ``sink`` may be a :class:`JsonLinesSink`, a path (wrapped in one),
    or any ``(event, payload) -> None`` callable.  Passing ``None``
    keeps any previously attached sink.
    """
    global _ENABLED
    with _lock:
        if sink is not None:
            _set_sink_locked(sink)
        _ENABLED = True


def disable(*, reset: bool = False) -> None:
    """Turn instrumentation off (optionally also dropping collected data)."""
    global _ENABLED
    with _lock:
        _ENABLED = False
    if reset:
        _spans.reset()
        _metrics.reset()


def enabled() -> bool:
    """Whether instrumentation is currently on."""
    return _ENABLED


def reset() -> None:
    """Drop all collected spans and metrics (the sink stays attached)."""
    _spans.reset()
    _metrics.reset()


def _set_sink_locked(sink) -> None:
    global _sink, _sink_owned
    if _sink_owned:
        _sink.close()  # obs opened its file, so obs closes it
    _sink_owned = not (
        sink is None or callable(sink) or isinstance(sink, JsonLinesSink)
    )
    _sink = JsonLinesSink(sink) if _sink_owned else sink


def set_sink(sink) -> None:
    """Attach (or with ``None`` detach) the process-wide event sink.

    A sink obs built from a path is closed when it is replaced or
    detached; a sink object the caller passed stays the caller's.
    """
    with _lock:
        _set_sink_locked(sink)


def get_spans() -> SpanRecorder:
    """The process-wide span recorder."""
    return _spans


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _metrics


# ---------------------------------------------------------------------------
# Instrumentation helpers (the fast path)
# ---------------------------------------------------------------------------


def span(name: str):
    """Context manager timing one region; no-op while disabled."""
    if not _ENABLED:
        return _NULL_SPAN
    return _spans.span(name)


traced = make_traced(span)
traced.__doc__ = """Decorator tracing every call of the wrapped function.

Usable bare (``@obs.traced``) or with an explicit span name
(``@obs.traced("ml.fit")``); the default name is
``<module>.<qualname>``.  Adds only the disabled-span branch while
observability is off.
"""


def record_span(name: str, seconds: float) -> None:
    """Record an externally measured duration as a span (if enabled)."""
    if _ENABLED:
        _spans.record(name, seconds)


def incr(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name`` (no-op while disabled)."""
    if _ENABLED:
        _metrics.counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op while disabled)."""
    if _ENABLED:
        _metrics.gauge(name).set(value)


def observe(name: str, value: float,
            boundaries: Optional[Sequence[float]] = None) -> None:
    """Record ``value`` into histogram ``name`` (no-op while disabled)."""
    if _ENABLED:
        _metrics.histogram(name, boundaries).observe(value)


def counter(name: str) -> Counter:
    """The process-wide counter ``name`` (always live; see note).

    Unlike :func:`incr` this bypasses the enabled check — layers whose
    telemetry must stay exact regardless of tracing state hold the
    metric objects directly (the serving telemetry builds its own and
    publishes them with :meth:`MetricsRegistry.publish`).
    """
    return _metrics.counter(name)


def gauge(name: str) -> Gauge:
    """The process-wide gauge ``name`` (always live)."""
    return _metrics.gauge(name)


def histogram(name: str, boundaries: Optional[Sequence[float]] = None) -> Histogram:
    """The process-wide histogram ``name`` (always live)."""
    return _metrics.histogram(name, boundaries)


def emit(event: str, payload: Optional[Dict] = None) -> None:
    """Send one event to the attached sink (no-op if disabled/no sink)."""
    if not _ENABLED:
        return
    sink = _sink
    if sink is None:
        return
    if isinstance(sink, JsonLinesSink):
        sink.emit(event, payload)
    else:
        try:
            sink(event, dict(payload or {}))
        except Exception:
            pass  # observer errors must never break the observed code


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def snapshot() -> Dict:
    """One JSON-able snapshot of every span and metric collected so far."""
    return snapshot_dict(_spans.snapshot(), _metrics.snapshot())
