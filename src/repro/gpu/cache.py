"""L2 cache model for the SpMV input-vector gather.

The dominant irregular traffic in SpMV is the gather ``x[col[i]]``
(paper Sec. IV-A discusses exactly this: banded structure → coalesced,
cache-friendly access; unstructured → uncoalesced misses).  This module
turns the :class:`~repro.gpu.profile.GatherStats` of a matrix into an
estimated number of DRAM bytes fetched on behalf of ``x``.

Model
-----
Let ``U`` be the distinct x-lines touched anywhere (compulsory misses),
``F`` the per-row line touches summed over rows (traffic with zero
cross-row reuse), and ``L2`` the cache capacity available to ``x``.

* If the whole touched working set fits in L2, every line is fetched
  roughly once (plus a small conflict-miss term): traffic ≈ ``U``.
* Otherwise only a fraction ``ρ = L2 / working_set`` of the vector is
  resident at any time; a row's line touch hits with probability ≈ ρ,
  so traffic interpolates between ``U`` (ρ→1) and ``F`` (ρ→0).

This captures the paper's observation that matrices with clustered
columns (large contiguous non-zero blocks, feature set 3) enjoy much
cheaper gathers than scattered ones of identical size.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

import numpy as np

from .device import DeviceSpec
from .profile import GatherStats, MatrixProfile

__all__ = [
    "gather_traffic_bytes",
    "gather_traffic_bytes_batch",
    "L2_X_SHARE",
    "CONFLICT_MISS_RATE",
    "LRUCache",
]


class LRUCache:
    """Small bounded least-recently-used mapping.

    Used by :class:`~repro.gpu.executor.SpMVExecutor` to bound its
    per-matrix analysis and converted-format caches: a long measurement
    campaign streams thousands of matrices through one executor, and an
    unbounded dict would retain every profile (and, worse, every
    converted format) for the life of the process.

    All operations take an internal lock, so one cache instance may be
    shared by concurrently serving threads (the network server funnels
    many connections through one :class:`SelectionService`, whose
    feature/decision caches are ``LRUCache``\\ s).  A ``get``/``put``
    pair is still *not* atomic as a unit — use :meth:`setdefault` when
    check-then-insert must not race.

    Parameters
    ----------
    maxsize:
        Maximum number of entries; the least recently *used* entry is
        evicted first.  ``None`` disables the bound (unbounded cache).
    """

    def __init__(self, maxsize: Optional[int] = 128) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (marking it most recently used)."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                return default
            self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite an entry, evicting the LRU one if needed."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            self._evict()

    def setdefault(self, key: Hashable, value: Any) -> Any:
        """Insert ``value`` unless present; return the cached entry."""
        with self._lock:
            try:
                existing = self._data[key]
            except KeyError:
                self._data[key] = value
                self._evict()
                return value
            self._data.move_to_end(key)
            return existing

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def _evict(self) -> None:
        if self.maxsize is not None:
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

#: Fraction of L2 effectively available to cache x (the rest is churned
#: by the streaming matrix arrays).
L2_X_SHARE = 0.35

#: Residual miss rate when the working set fits in L2 (conflict and
#: cold-start effects).
CONFLICT_MISS_RATE = 0.03


def gather_traffic_bytes(
    profile: MatrixProfile,
    device: DeviceSpec,
    precision: str,
) -> float:
    """DRAM bytes fetched for the ``x`` gather of one SpMV.

    A batch of one through :func:`gather_traffic_bytes_batch`.

    Parameters
    ----------
    profile:
        Structural profile of the matrix.
    device:
        Target GPU (supplies L2 capacity and line size).
    precision:
        ``"single"`` or ``"double"``.
    """
    stats: GatherStats = profile.gather[precision]
    return float(
        gather_traffic_bytes_batch(
            [stats.unique_lines], [stats.line_fetches], [profile.nnz], device
        )[0]
    )


def gather_traffic_bytes_batch(
    unique_lines: np.ndarray,
    line_fetches: np.ndarray,
    nnz: np.ndarray,
    device: DeviceSpec,
) -> np.ndarray:
    """DRAM bytes fetched for the ``x`` gather of N SpMVs at once.

    Takes the gather statistics as parallel int64 arrays (one entry per
    matrix, as stored in :class:`~repro.gpu.batch.ProfileBatch`) and
    returns a float64 array of DRAM bytes (see the module docstring for
    the model; matrices without non-zeros fetch nothing).
    """
    unique = np.asarray(unique_lines, dtype=np.int64)
    fetches = np.asarray(line_fetches, dtype=np.int64)
    line = device.cache_line_bytes
    l2_lines = (device.l2_bytes * L2_X_SHARE) / line
    working_set = np.maximum(unique, 1)

    extra = CONFLICT_MISS_RATE * np.maximum(fetches - unique, 0)
    resident = l2_lines / working_set
    fetched = np.where(
        working_set <= l2_lines,
        unique + extra,
        resident * unique + (1.0 - resident) * fetches,
    )
    return np.where(np.asarray(nnz, dtype=np.int64) == 0, 0.0, fetched * line)
