"""Snapshot exporters: JSON, human-readable tables, JSON-lines events.

Three ways out of the in-process registries:

* :func:`snapshot` — one JSON-able dict covering spans and metrics
  (the wire/disk format; ``repro-spmv --metrics-out`` writes it and
  ``repro-spmv obs`` pretty-prints it back);
* :func:`render_snapshot` — fixed-width tables for terminals;
* :class:`JsonLinesSink` — an append-only event stream (one JSON
  object per line) for live tailing of campaign progress or periodic
  daemon snapshots.

:func:`check_snapshot` validates the structural invariants every
well-formed snapshot obeys — most importantly that a parent span's
total time is at least the sum of its (sequentially nested) children —
so downstream dashboards can trust the numbers they aggregate.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, IO, List, Optional, Union

from .trace import PATH_SEP

__all__ = [
    "SNAPSHOT_SCHEMA",
    "JsonLinesSink",
    "check_snapshot",
    "render_snapshot",
    "snapshot_dict",
]

#: Schema tag stamped into every snapshot.
SNAPSHOT_SCHEMA = "repro-obs-snapshot/v1"

#: Slack allowed when comparing a parent span total against the sum of
#: its children: clock granularity plus per-span bookkeeping overhead.
_NESTING_SLACK_S = 1e-4


def snapshot_dict(spans: Dict[str, Dict], metrics: Dict[str, Dict]) -> Dict:
    """Assemble the canonical snapshot structure."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "unix_time": time.time(),
        "spans": spans,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Human rendering
# ---------------------------------------------------------------------------


def _fmt_seconds(s: float) -> str:
    if s >= 1.0:
        return f"{s:.3f}s"
    if s >= 1e-3:
        return f"{1e3 * s:.2f}ms"
    return f"{1e6 * s:.1f}us"


def _table(header: List[str], rows: List[List[str]]) -> List[str]:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return lines


def render_snapshot(snap: Dict) -> str:
    """Render a snapshot as fixed-width terminal tables."""
    out: List[str] = []
    spans = snap.get("spans", {})
    if spans:
        rows = []
        for path in sorted(spans):
            s = spans[path]
            depth = path.count(PATH_SEP)
            label = "  " * depth + path.rsplit(PATH_SEP, 1)[-1]
            rows.append([
                label,
                str(s["count"]),
                _fmt_seconds(s["total_s"]),
                _fmt_seconds(s["mean_s"]),
                _fmt_seconds(s["min_s"]),
                _fmt_seconds(s["max_s"]),
            ])
        out.append("spans")
        out.extend(_table(["span", "count", "total", "mean", "min", "max"], rows))
    metrics = snap.get("metrics", {})
    counters = [(n, m) for n, m in sorted(metrics.items()) if m["type"] == "counter"]
    gauges = [(n, m) for n, m in sorted(metrics.items()) if m["type"] == "gauge"]
    hists = [(n, m) for n, m in sorted(metrics.items()) if m["type"] == "histogram"]
    if counters or gauges:
        if out:
            out.append("")
        rows = [[n, "counter", f"{m['value']:g}"] for n, m in counters]
        rows += [[n, "gauge", f"{m['value']:g}"] for n, m in gauges]
        out.append("counters / gauges")
        out.extend(_table(["metric", "type", "value"], rows))
    if hists:
        if out:
            out.append("")
        rows = [
            [
                n,
                str(m["count"]),
                _fmt_seconds(m["mean"]),
                _fmt_seconds(m["p50"]),
                _fmt_seconds(m["p95"]),
                _fmt_seconds(m["p99"]),
                _fmt_seconds(m["max"]),
            ]
            for n, m in hists
        ]
        out.append("histograms")
        out.extend(_table(
            ["histogram", "count", "mean", "p50", "p95", "p99", "max"], rows
        ))
    if not out:
        out.append("(empty snapshot)")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Consistency checking
# ---------------------------------------------------------------------------


def check_snapshot(snap: Dict) -> List[str]:
    """Validate snapshot invariants; returns a list of problems (empty = ok).

    Checks:

    * schema tag is recognised;
    * every span path's parent exists and the parent's total time is at
      least the sum of its children (within clock slack) — children are
      nested *inside* the parent on one thread, so they can never sum
      past it;
    * histogram bucket counts sum to the recorded count, and
      ``min <= mean <= max``;
    * counters and span/histogram counts are non-negative.
    """
    problems: List[str] = []
    if snap.get("schema") != SNAPSHOT_SCHEMA:
        problems.append(
            f"unknown snapshot schema {snap.get('schema')!r} "
            f"(expected {SNAPSHOT_SCHEMA!r})"
        )
    spans: Dict[str, Dict] = snap.get("spans", {})
    child_totals: Dict[str, float] = {}
    for path, s in spans.items():
        if s["count"] < 0 or s["total_s"] < -1e-12:
            problems.append(f"span {path!r}: negative count/total")
        if PATH_SEP in path:
            parent = path.rsplit(PATH_SEP, 1)[0]
            if parent not in spans:
                problems.append(f"span {path!r}: parent {parent!r} missing")
            child_totals[parent] = child_totals.get(parent, 0.0) + s["total_s"]
    for parent, child_sum in child_totals.items():
        if parent not in spans:
            continue
        total = spans[parent]["total_s"]
        slack = _NESTING_SLACK_S * max(1, spans[parent]["count"])
        if child_sum > total + slack:
            problems.append(
                f"span {parent!r}: children sum to {child_sum:.6f}s "
                f"> own total {total:.6f}s"
            )
    for name, m in snap.get("metrics", {}).items():
        kind = m.get("type")
        if kind == "counter" and m["value"] < 0:
            problems.append(f"counter {name!r}: negative value")
        elif kind == "histogram":
            bucket_sum = sum(m.get("buckets", {}).values())
            if bucket_sum != m["count"]:
                problems.append(
                    f"histogram {name!r}: bucket counts sum to {bucket_sum} "
                    f"!= count {m['count']}"
                )
            if m["count"] and not (
                m["min"] - 1e-12 <= m["mean"] <= m["max"] + 1e-12
            ):
                problems.append(f"histogram {name!r}: mean outside [min, max]")
    return problems


# ---------------------------------------------------------------------------
# Event sink
# ---------------------------------------------------------------------------


class JsonLinesSink:
    """Append-only JSON-lines event stream.

    Accepts a path (opened lazily, line-buffered append) or any
    writable text stream.  Every event is one JSON object with at least
    ``{"ts": <unix seconds>, "event": <type>}``; emission is serialised
    by a lock so concurrent threads never interleave partial lines.
    After :meth:`close` the sink drops every event: a closed path sink
    never reopens its file, so an emit that races the close (``obs``
    reads its sink outside the lock) cannot leak a handle.
    """

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        self._lock = threading.Lock()
        self._own = False
        self._closed = False
        if isinstance(target, (str, Path)):
            self._path: Optional[Path] = Path(target)
            self._fh: Optional[IO[str]] = None
        else:
            self._path = None
            self._fh = target

    def _handle(self) -> IO[str]:
        if self._fh is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self._path, "a", buffering=1)
            self._own = True
        return self._fh

    def emit(self, event: str, payload: Optional[Dict] = None) -> None:
        """Write one event line (never raises into the instrumented code)."""
        record = {"ts": time.time(), "event": event}
        if payload:
            record.update(payload)
        try:
            line = json.dumps(record, sort_keys=True, default=str)
        except (TypeError, ValueError):
            line = json.dumps({"ts": record["ts"], "event": event,
                               "error": "unserialisable payload"})
        with self._lock:
            if self._closed:
                return
            try:
                fh = self._handle()
                fh.write(line + "\n")
                fh.flush()
            except OSError:
                pass  # a full disk must not take the workload down

    def close(self) -> None:
        """Close an owned file and drop every later event."""
        with self._lock:
            self._closed = True
            if self._fh is not None and self._own:
                try:
                    self._fh.close()
                except OSError:
                    pass
            self._fh = None
            self._own = False

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


#: Type of the pluggable sink callables :mod:`repro.obs` accepts: either
#: a :class:`JsonLinesSink` or any ``(event, payload) -> None`` callable.
SinkLike = Union[JsonLinesSink, Callable[[str, Dict], None]]
