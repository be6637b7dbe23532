"""Metric primitives: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` holds every metric of a process.  Metrics
are created on first use (``registry.counter("serve.requests")``) and
identified by dotted names; the naming conventions live in
``docs/OBSERVABILITY.md``.  All mutators are thread-safe and cheap — a
counter increment is one lock acquisition and one float add — so hot
paths can afford to keep them always on once the caller has checked
:func:`repro.obs.enabled`.

Histograms use *fixed* bucket boundaries (by default a geometric series
with 20 edges per decade, spanning 100 ns to 100 s for timing data), so
quantile estimates need no reservoir: :meth:`Histogram.quantile`
interpolates inside the bucket containing the requested rank.  Adjacent
default edges differ by 12%, so the estimate stays within a few percent
of the sample quantile (``tests/test_obs.py`` bounds p50/p95 at 5% and
p99 at 10% on lognormal data) at O(1) memory per metric regardless of
traffic.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]


#: Default histogram boundaries: 20 geometric edges per decade from
#: 100 ns to 100 s.  Good for timing data (the dominant histogram use in
#: this repo); callers with other units pass explicit ``buckets``.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(10 ** (k / 20) for k in range(-140, 41))


class Counter:
    """Monotonically increasing count (requests served, cache hits...)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """Last-written value (worker utilisation, queue depth...)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Fixed-bucket histogram with interpolated quantile estimates.

    ``boundaries`` are the *upper* edges of the finite buckets; one
    implicit overflow bucket catches everything above the last edge.
    Count, sum, min and max are tracked exactly; quantiles are
    estimated by linear interpolation within the selected bucket.
    """

    __slots__ = ("name", "boundaries", "_lock", "_counts", "_overflow",
                 "_count", "_sum", "_min", "_max")

    def __init__(self, name: str,
                 boundaries: Optional[Sequence[float]] = None) -> None:
        if boundaries is None:
            boundaries = DEFAULT_BUCKETS
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("boundaries must be a non-empty increasing sequence")
        self.name = name
        self.boundaries = bounds
        self._lock = threading.Lock()
        self._counts = [0] * len(bounds)
        self._overflow = 0
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        idx = bisect_left(self.boundaries, value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if idx < len(self._counts):
                self._counts[idx] += 1
            else:
                self._overflow += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]).

        The target is the sample at rank ``q * (n - 1)`` (0-based, as
        ``numpy.percentile`` interpolates).  Inside the bucket holding
        that rank, its ``c`` samples are taken to sit at the midpoints
        of ``c`` equal slices, so rank ``r`` lands at fraction
        ``(r - below + 0.5) / c`` of the bucket; the estimate is
        clamped to the observed min/max, and ranks 0 and ``n - 1`` are
        the tracked min and max exactly.  Returns 0.0 for an empty
        histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = q * (self._count - 1)
            if target <= 0:
                return self._min
            if target >= self._count - 1:
                return self._max
            cum = 0
            lower = self._min
            for edge, c in zip(self.boundaries, self._counts):
                if c:
                    if cum + c > target:
                        frac = (target - cum + 0.5) / c
                        est = lower + frac * (min(edge, self._max) - lower)
                        return min(max(est, self._min), self._max)
                    cum += c
                lower = max(edge, self._min)
            return self._max  # target rank lives in the overflow bucket

    def snapshot(self) -> Dict:
        with self._lock:
            nonzero = {
                f"{edge:g}": c
                for edge, c in zip(self.boundaries, self._counts)
                if c
            }
            if self._overflow:
                nonzero["+inf"] = self._overflow
            counts = dict(nonzero)
            count, total = self._count, self._sum
            lo = self._min if count else 0.0
            hi = self._max if count else 0.0
        return {
            "type": "histogram",
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": lo,
            "max": hi,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": counts,
        }


class MetricsRegistry:
    """Thread-safe name → metric map with create-on-first-use semantics.

    Asking for an existing name returns the same object; asking for an
    existing name *as a different metric type* raises ``TypeError`` —
    name collisions across types are always a bug.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, cls, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, *args)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, boundaries: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._get_or_create(name, Histogram, boundaries)

    def publish(self, metric: Union[Counter, Gauge, Histogram]):
        """Register ``metric`` under its name, replacing any metric
        already there; returns ``metric``.

        For owners that build their own metric objects (one per serving
        process component) but want them visible in process snapshots.
        """
        with self._lock:
            self._metrics[metric.name] = metric
        return metric

    def get(self, name: str):
        """The metric named ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict]:
        """``name -> metric snapshot`` for every registered metric."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: m.snapshot() for name, m in sorted(metrics)}

    def reset(self) -> None:
        """Drop every metric (tests and long-lived daemons)."""
        with self._lock:
            self._metrics.clear()
