"""The SpMV kernel cost models, evaluated over batches of matrices.

This module is the only place the cost physics lives.  Each format has
one model ``(batch, device, precision, configs, gather)`` that turns a
:class:`ProfileBatch` of N matrices plus a
:class:`~repro.gpu.device.DeviceSpec`, a precision and K
:class:`~repro.tuning.Configuration` objects of that format into cost
*terms* — data movement, compute/reduction work, imbalance penalties,
launch overhead and the format's device footprint — one set per kernel
(CSR has three).  The profile statistics enter as ``(N, 1)`` columns
and the parameter values as ``(1, K)`` rows, so one call covers every
configuration of a format.  :func:`estimate_batch` writes every
kernel's terms into ``(N, F')`` blocks and turns them into costs with
one :func:`_assemble` call per sweep; the x-gather traffic, shared by
all formats but DIA, is computed once per sweep and handed to the
models.  Default parameters are just the default
configuration; the scalar entry points
(:func:`~repro.gpu.kernels.estimate_time`, the executor's
``check_feasible``/``estimate``/``benchmark``) are batches of one.  The
mechanisms are the ones the paper describes qualitatively (Sec. II-A,
Sec. III):

* **COO** — structure-insensitive but pays an extra row-index stream,
  a segmented-reduction pass and atomic row updates (cheap on Pascal,
  expensive on Kepler).
* **CSR** — modelled as cuSPARSE-style adaptive choice between the
  *scalar* kernel (thread/row: uncoalesced, diverges with row-length
  variance), the *vector* kernel (``lanes`` per row: coalesced but
  wastes lanes on short rows) and a row-packing kernel.
* **ELL** — perfectly regular streaming of padded planes: fastest per
  byte, but the byte count scales with ``rows × longest_row``;
  ``rows_per_thread`` chunking and a ``width_cap`` feasibility guard.
* **HYB** — an ELL pass at ``split`` × the μ-threshold width plus a COO
  pass over the spill, two kernel launches.
* **CSR5** — nnz-balanced tiles: insensitive to structure, small tile
  descriptor overhead, slight gather-locality penalty from the tile
  transposition.
* **merge-based CSR** — nnz+rows merge items split evenly: insensitive
  to structure, pays merge-path binary searches, a carry fix-up pass
  and the extra row-pointer traffic.
* **DIA** — pure diagonal streaming, no index array.
* **BSR** — dense ``block_shape`` blocks, one index per block.

The absolute constants were calibrated so single-precision CSR on the
Kepler device peaks around the 20–25 GFLOPS the paper's Fig. 3 shows;
the *relative* behaviour across formats/structures is what matters for
the ML study.

Entry points: :class:`ProfileBatch` (struct-of-arrays over
:class:`~repro.gpu.profile.MatrixProfile` objects),
:func:`estimate_batch` (N matrices × F formats or configuration keys,
one model call per format and one assembly, returning a
:class:`CostBreakdownBatch` of ``(N, F)`` arrays that includes the
footprint behind the executor's memory check) and
:func:`known_formats`.  The parsed configurations, their grouping by
format and the column each lands in are planned once per tuple of keys
and cached, so a repeated sweep parses no key.
``tests/test_cost_golden.py`` pins every output bit for bit against a
recorded fixture.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..tuning import ConfigError, Configuration
from .cache import gather_traffic_bytes_batch
from .device import DeviceSpec
from .profile import MatrixProfile

__all__ = [
    "ProfileBatch",
    "CostBreakdown",
    "CostBreakdownBatch",
    "KERNEL_MODELS",
    "estimate_batch",
    "known_formats",
]

#: Bytes of one index element (matches repro.formats.INDEX_BYTES).
IDX = 4

#: Precisions every profile carries gather statistics for.
_PRECISIONS = ("single", "double")

#: Profile fields stored as int64 arrays.
_INT_FIELDS = (
    "n_rows",
    "n_cols",
    "nnz",
    "nnz_max",
    "nnz_min",
    "empty_rows",
    "hyb_threshold",
    "hyb_ell_nnz",
    "hyb_spill_nnz",
    "hyb_spill_rows",
    "n_diags",
    "bsr_blocks",
)

#: Profile fields stored as float64 arrays.
_FLOAT_FIELDS = ("nnz_mu", "nnz_sigma", "warp_divergence", "vector_waste")


def _itemsize(precision: str) -> int:
    if precision == "single":
        return 4
    if precision == "double":
        return 8
    raise ValueError(f"unknown precision {precision!r}")


@dataclass(frozen=True)
class ProfileBatch:
    """Struct-of-arrays over N :class:`MatrixProfile` objects.

    Integer structure counters are int64 arrays (so feasibility
    comparisons stay exact) and the row-statistics are float64;
    ``gather_unique``/``gather_fetches`` hold the per-precision
    cache-line gather statistics.  Build one with :meth:`from_profiles`.
    """

    n_rows: np.ndarray
    n_cols: np.ndarray
    nnz: np.ndarray
    nnz_mu: np.ndarray
    nnz_sigma: np.ndarray
    nnz_max: np.ndarray
    nnz_min: np.ndarray
    empty_rows: np.ndarray
    warp_divergence: np.ndarray
    vector_waste: np.ndarray
    hyb_threshold: np.ndarray
    hyb_ell_nnz: np.ndarray
    hyb_spill_nnz: np.ndarray
    hyb_spill_rows: np.ndarray
    n_diags: np.ndarray
    bsr_blocks: np.ndarray
    gather_unique: Dict[str, np.ndarray]
    gather_fetches: Dict[str, np.ndarray]
    digests: Tuple[bytes, ...]

    @classmethod
    def from_profiles(cls, profiles: Iterable[MatrixProfile]) -> "ProfileBatch":
        """Pack a sequence of profiles into parallel arrays."""
        profs = list(profiles)
        fields: Dict[str, np.ndarray] = {}
        for name in _INT_FIELDS:
            fields[name] = np.array([getattr(p, name) for p in profs], dtype=np.int64)
        for name in _FLOAT_FIELDS:
            fields[name] = np.array([getattr(p, name) for p in profs], dtype=np.float64)
        gather_unique = {
            prec: np.array([p.gather[prec].unique_lines for p in profs], dtype=np.int64)
            for prec in _PRECISIONS
        }
        gather_fetches = {
            prec: np.array([p.gather[prec].line_fetches for p in profs], dtype=np.int64)
            for prec in _PRECISIONS
        }
        return cls(
            gather_unique=gather_unique,
            gather_fetches=gather_fetches,
            digests=tuple(p.digest for p in profs),
            **fields,
        )

    def __len__(self) -> int:
        return int(self.n_rows.shape[0])

    @property
    def size(self) -> int:
        """Number of matrices in the batch."""
        return len(self)

    @property
    def row_cv(self) -> np.ndarray:
        """Row-length coefficient of variation, 0 where ``nnz_mu == 0``."""
        cv = np.zeros(self.nnz_mu.shape)
        np.divide(self.nnz_sigma, self.nnz_mu, out=cv, where=self.nnz_mu > 0)
        return cv

    @property
    def ell_padding_ratio(self) -> np.ndarray:
        """ELL stored slots per non-zero (1.0 for empty matrices)."""
        ratio = np.ones(self.nnz.shape)
        np.divide(self.n_rows * self.nnz_max, self.nnz, out=ratio, where=self.nnz != 0)
        return ratio

    def columns(self) -> "ProfileBatch":
        """The same batch with every array as an ``(N, 1)`` column.

        The cost models take this view, so their profile terms broadcast
        against ``(1, K)`` rows of parameter values.
        """
        return ProfileBatch(
            gather_unique={p: a[:, None] for p, a in self.gather_unique.items()},
            gather_fetches={p: a[:, None] for p, a in self.gather_fetches.items()},
            digests=self.digests,
            **{name: getattr(self, name)[:, None] for name in _INT_FIELDS + _FLOAT_FIELDS},
        )


# ---------------------------------------------------------------------------
# Assembly helpers
# ---------------------------------------------------------------------------


def _kernel(
    *, matrix_bytes, x_bytes, y_bytes, efficiency, imbalance, compute_seconds,
    footprint, launches: float, setup_us: float = 0.0, scale=None,
) -> Dict[str, object]:
    """One kernel's cost terms, as a model returns them (see
    :data:`KERNEL_MODELS`).  ``launches`` and ``setup_us`` are constants;
    ``scale`` is an optional factor on the assembled seconds (ELL's
    chunking)."""
    return locals()


#: The array terms of :func:`_kernel`, written into ``(N, F')`` blocks.
_BLOCK_TERMS = (
    "matrix_bytes",
    "x_bytes",
    "y_bytes",
    "efficiency",
    "imbalance",
    "compute_seconds",
    "footprint",
)


def _assemble(
    batch: ProfileBatch,
    device: DeviceSpec,
    *,
    matrix_bytes,
    x_bytes,
    y_bytes,
    efficiency,
    imbalance,
    compute_seconds,
    launches,
    setup_us,
    footprint,
) -> Dict[str, np.ndarray]:
    """Combine traffic, compute and overhead into cost arrays.

    Memory and compute overlap on a GPU, so the streaming phase costs
    ``max(mem, compute)``; imbalance stretches the streaming phase
    because late warps finish after the bandwidth is no longer
    saturated.  ``setup_us`` is the format's fixed per-invocation
    bookkeeping (tile/partition dispatch, grid sizing) on top of the
    raw launch overhead — the reason sophisticated formats lose on tiny
    matrices.  Zero-traffic matrices get zero memory time; a
    zero-efficiency cell with traffic (HYB with nothing to store) comes
    out as ``inf``, which the scalar entry points report as
    ``ZeroDivisionError`` and the executor as a failure.
    ``footprint`` (the format's device bytes, vectors excluded) passes
    through for the executor's memory check.  The sweep calls this once
    per pass: every term is an ``(N, F')`` block holding one column per
    kernel, and ``launches``/``setup_us`` are ``(1, F')`` rows.
    """
    total_bytes = matrix_bytes + x_bytes + y_bytes
    bw = device.stream_bandwidth * efficiency * device.utilization(total_bytes)
    mem_seconds = np.zeros(np.broadcast(total_bytes, bw).shape)
    with np.errstate(divide="ignore"):
        np.divide(total_bytes, bw, out=mem_seconds, where=total_bytes != 0)
    launch_seconds = launches * device.launch_overhead_us * 1e-6 + setup_us * 1e-6
    seconds = np.maximum(mem_seconds, compute_seconds) * imbalance + launch_seconds
    return {
        "seconds": seconds,
        "matrix_bytes": matrix_bytes,
        "x_bytes": x_bytes,
        "y_bytes": y_bytes,
        "compute_seconds": compute_seconds,
        "launch_seconds": np.broadcast_to(launch_seconds, seconds.shape),
        "imbalance": imbalance,
        "efficiency": efficiency,
        "flops": np.broadcast_to(2.0 * batch.nnz, seconds.shape),
        "footprint": footprint,
    }


def _reduction_seconds(device: DeviceSpec, ops, cycles_per_op: float):
    """Time for ``ops`` bookkeeping operations at full occupancy."""
    throughput = device.n_sm * device.cores_per_sm * device.clock_hz
    return ops * cycles_per_op / throughput


def _gather(batch: ProfileBatch, device: DeviceSpec, precision: str) -> np.ndarray:
    """The x-gather DRAM bytes at unit locality, computed once per sweep.

    Models that visit rows out of order scale it by their locality
    penalty (CSR5: ``gather * 1.22``).
    """
    return gather_traffic_bytes_batch(
        batch.gather_unique[precision],
        batch.gather_fetches[precision],
        batch.nnz,
        device,
    )


def _atomic_efficiency(device: DeviceSpec, precision: str) -> float:
    """Atomic update efficiency (Kepler fp64 atomics are CAS loops)."""
    atomic_eff = device.atomic_efficiency
    if precision == "double" and device.arch == "kepler":
        atomic_eff *= 0.5
    return atomic_eff


# ---------------------------------------------------------------------------
# Derived geometry (analytic, from existing profile statistics)
# ---------------------------------------------------------------------------
# The profile records *exact* HYB split geometry at the paper's
# mu-threshold and the exact 4x4 BSR block count.  Other parameter
# values re-derive their geometry from the recorded statistics — a
# modeling choice that keeps the one-pass analysis contract untouched
# (no new profile fields, no re-scan).


def _hyb_split_geometry(batch: ProfileBatch, split):
    """ELL slots / spill nnz / spill rows at ``split`` x the mu threshold.

    Anchored to the exact geometry at ``split == 1`` (``hyb_ell_nnz``,
    ``hyb_spill_nnz``, ``hyb_spill_rows``): thresholds above the anchor
    decay the spill mass exponentially with scale ``max(1, sigma)``
    (row-length tails are near-geometric for the corpus generators);
    thresholds below it interpolate the ELL mass linearly, bounded by
    the ``k * non_empty_rows`` plane capacity.
    """
    rows = batch.n_rows.astype(np.float64)
    nnz = batch.nnz.astype(np.float64)
    k1 = batch.hyb_threshold.astype(np.float64)
    e1 = batch.hyb_ell_nnz.astype(np.float64)
    s1 = batch.hyb_spill_nnz.astype(np.float64)
    r1 = batch.hyb_spill_rows.astype(np.float64)
    rows_n = rows - batch.empty_rows.astype(np.float64)

    k_m = np.zeros(rows.shape)
    np.divide(nnz, rows, out=k_m, where=rows > 0)
    k_m = np.where(rows > 0, np.maximum(1.0, np.ceil(split * k_m)), 0.0)

    lam = np.maximum(1.0, batch.nnz_sigma)
    decay = np.exp(-np.maximum(k_m - k1, 0.0) / lam)
    spill_hi = s1 * decay
    rows_hi = r1 * decay

    ratio = np.ones(k_m.shape)
    np.divide(k_m, k1, out=ratio, where=k1 > 0)
    ell_lo = np.minimum(e1 * ratio, k_m * rows_n)
    spill_lo = nnz - ell_lo
    rows_lo = np.minimum(
        rows_n, r1 + (spill_lo - s1) / np.maximum(k_m, 1.0)
    )

    above = k_m >= k1
    spill = np.where(above, spill_hi, spill_lo)
    spill_rows = np.where(above, rows_hi, rows_lo)
    # A threshold at/above the longest row spills nothing, exactly.
    no_spill = k_m >= batch.nnz_max
    spill = np.where(no_spill, 0.0, spill)
    spill_rows = np.where(no_spill, 0.0, spill_rows)
    ell_slots = rows * np.minimum(k_m, batch.nnz_max.astype(np.float64))
    return ell_slots, spill, spill_rows


def _bsr_block_count(batch: ProfileBatch, shape: Tuple[int, int]) -> np.ndarray:
    """Occupied block count at ``shape``, derived from the exact 4x4 count.

    2x2 sub-blocks: each occupied 4x4 block holds four 2x2 cells; with
    ``e`` entries spread over it, the expected occupied fraction is
    ``1 - (3/4)**e`` (uniform placement), clipped to the combinatorial
    bounds ``[blocks4, min(nnz, 4 * blocks4)]``.  8x8 super-blocks:
    occupancy of the 8x8 grid under an independence assumption on the
    4x4 block density, clipped to ``[ceil(blocks4 / 4), blocks4]``.
    """
    b4 = batch.bsr_blocks.astype(np.float64)
    nnz = batch.nnz.astype(np.float64)
    if shape == (4, 4):
        return b4
    if shape == (2, 2):
        e = np.zeros(b4.shape)
        np.divide(nnz, b4, out=e, where=b4 > 0)
        raw = b4 * 4.0 * (1.0 - 0.75 ** e)
        return np.clip(raw, b4, np.minimum(nnz, 4.0 * b4))
    if shape == (8, 8):
        cells4 = (-(-batch.n_rows // 4)) * (-(-batch.n_cols // 4))
        d4 = np.zeros(b4.shape)
        np.divide(b4, cells4.astype(np.float64), out=d4, where=cells4 > 0)
        cells8 = ((-(-batch.n_rows // 8)) * (-(-batch.n_cols // 8))).astype(
            np.float64
        )
        raw = cells8 * (1.0 - (1.0 - d4) ** 4)
        return np.clip(raw, np.ceil(b4 / 4.0), b4)
    # Off-grid shapes: interpolate through the area ratio against 4x4.
    area = float(shape[0] * shape[1])
    scale = np.clip(16.0 / area, 1.0 / 4.0, 4.0)
    return np.clip(b4 * scale, np.ceil(b4 / 4.0), np.minimum(nnz, 4.0 * b4))


# ---------------------------------------------------------------------------
# Per-format models
# ---------------------------------------------------------------------------
# Each model takes the (N, 1) column view of the batch and the K
# configurations of its format; parameter values enter as (1, K) rows.


#: The configurations one model call evaluates (all of one format).
_Configs = Tuple[Configuration, ...]


def _row(values) -> np.ndarray:
    """Per-configuration parameter values as a ``(1, K)`` row."""
    return np.array([values])


def _coo(batch: ProfileBatch, device: DeviceSpec, precision: str, configs: _Configs, gather):
    v = _itemsize(precision)
    nnz = batch.nnz
    matrix_bytes = nnz * (2 * IDX + v)
    # Segmented reduction updates y with atomics for segments crossing
    # thread-block boundaries: model as read-modify-write inflated by the
    # device's atomic efficiency.
    rows_touched = batch.n_rows - batch.empty_rows
    y_bytes = 2.0 * rows_touched * v / max(_atomic_efficiency(device, precision), 1e-3)
    compute = _reduction_seconds(device, nnz, cycles_per_op=4.0)
    return (_kernel(
        matrix_bytes=matrix_bytes,
        x_bytes=gather,
        y_bytes=y_bytes,
        efficiency=0.58,  # interleaved carry handling costs replays
        imbalance=1.0,
        compute_seconds=compute,
        launches=1,  # fused product + segmented-reduction kernel (CUSP style)
        setup_us=2.0,  # carry-buffer initialisation
        footprint=matrix_bytes,
    ),)


def _csr(batch: ProfileBatch, device: DeviceSpec, precision: str, configs: _Configs, gather):
    """CSR: the fastest of the scalar, vector and row-packing kernels.

    ``lanes`` narrows the vector kernel: the lane waste on short rows
    shrinks proportionally, while coalescing efficiency drops and the
    warp reduction shortens with ``log2``.  The sweep keeps the fastest
    kernel per cell.
    """
    lanes = [config.param("lanes") for config in configs]
    for value in lanes:
        if value < 1 or value > 32:
            raise ConfigError(f"csr lanes must be in [1, 32], got {value}")
    v = _itemsize(precision)
    nnz = batch.nnz
    rows = batch.n_rows
    matrix_bytes = nnz * (IDX + v) + (rows + 1) * IDX
    y_bytes = rows * v

    # Scalar kernel: thread per row.  Column/value reads stride by row
    # length -> poor coalescing; 32-row warp groups serialize on their
    # longest member.
    scalar = _kernel(
        matrix_bytes=matrix_bytes,
        x_bytes=gather,
        y_bytes=y_bytes,
        efficiency=0.30,
        imbalance=1.0 + 0.8 * (batch.warp_divergence - 1.0),
        compute_seconds=_reduction_seconds(device, nnz, 1.0),
        launches=1,
        footprint=matrix_bytes,
    )
    # Vector kernel: ``lanes`` per row.  Coalesced, but rows shorter
    # than the lane group leave lanes idle (vector_waste) and every row
    # pays a warp-level reduction.
    frac = _row(lanes) / 32.0
    waste = 1.0 + (batch.vector_waste - 1.0) * frac
    vector = _kernel(
        matrix_bytes=matrix_bytes,
        x_bytes=gather,
        y_bytes=y_bytes,
        efficiency=0.88 * (0.85 + 0.15 * frac),
        imbalance=1.0 + 0.45 * (waste - 1.0),
        compute_seconds=_reduction_seconds(
            device, nnz + 8.0 * rows * _row([math.log2(n) / 5.0 for n in lanes]), 1.2
        ),
        launches=1,
        footprint=matrix_bytes,
    )
    # Row-packing kernel (cuSPARSE-style heuristics): short rows are
    # packed several-per-warp, so lane waste largely disappears, at the
    # price of per-row bookkeeping and a residual sensitivity to
    # row-length variance (a packed warp still waits for its longest
    # member).
    packed = _kernel(
        matrix_bytes=matrix_bytes,
        x_bytes=gather,
        y_bytes=y_bytes,
        efficiency=0.82,
        imbalance=1.0 + 0.80 * np.minimum(batch.row_cv, 4.0),
        compute_seconds=_reduction_seconds(device, nnz * 1.1 + 8.0 * rows, 1.0),
        launches=1,
        footprint=matrix_bytes,
    )
    return scalar, vector, packed


def _ell(batch: ProfileBatch, device: DeviceSpec, precision: str, configs: _Configs, gather):
    """ELL with ``rows_per_thread`` chunking (``width_cap`` only gates
    feasibility).

    Chunking ``rpt`` rows into one thread saves scheduling/issue work on
    regular matrices but serialises the longest of each chunk — a
    penalty growing with the row-length coefficient of variation.
    """
    rpt = [config.param("rows_per_thread") for config in configs]
    for value in rpt:
        if value < 1:
            raise ConfigError(f"ell rows_per_thread must be >= 1, got {value}")
    v = _itemsize(precision)
    slots = batch.n_rows * batch.nnz_max  # padded plane size
    factor = None
    if any(value != 1 for value in rpt):
        # One chunk factor per configuration; it is exactly 1.0 where
        # rows_per_thread is 1, so those columns keep their seconds.
        chunk = _row(rpt) - 1
        factor = (
            1.0 + 0.07 * chunk * np.minimum(batch.row_cv, 2.0)
        ) * (1.0 - 0.04 * chunk)
    # Perfectly regular column-major streaming: the padding bytes are in
    # matrix_bytes already, so no further imbalance term is needed.
    return (_kernel(
        matrix_bytes=slots * (IDX + v),
        x_bytes=gather,
        y_bytes=batch.n_rows * v,
        efficiency=0.96,
        imbalance=1.0,
        compute_seconds=_reduction_seconds(device, slots.astype(np.float64), 0.8),
        launches=1,
        setup_us=1.5,  # column-major grid configuration
        footprint=slots * (IDX + v),
        scale=factor,
    ),)


def _hyb(batch: ProfileBatch, device: DeviceSpec, precision: str, configs: _Configs, gather):
    """HYB with the ELL/COO split at ``split`` x the mu threshold."""
    split = [config.param("split") for config in configs]
    for value in split:
        if value <= 0:
            raise ConfigError(f"hyb split must be > 0, got {value}")
    v = _itemsize(precision)
    rows = batch.n_rows
    ell_slots, spill, spill_rows = _hyb_split_geometry(batch, _row(split))
    matrix_bytes = ell_slots * (IDX + v) + spill * (2 * IDX + v)
    # ELL pass writes y once; the COO pass atomically updates only the
    # rows that actually spilled past the threshold.
    atomic_eff = _atomic_efficiency(device, precision)
    y_bytes = rows * v + 2.0 * spill_rows * v / max(atomic_eff, 1e-3)
    compute = _reduction_seconds(device, ell_slots * 0.8 + spill * 2.5, 1.0)
    # Blended efficiency: the ELL part streams perfectly, the COO spill
    # pays the segmented-reduction efficiency.
    total_elems = np.maximum(ell_slots + spill, 1)
    efficiency = (0.96 * ell_slots + 0.88 * spill) / total_elems
    return (_kernel(
        matrix_bytes=matrix_bytes,
        x_bytes=gather,
        y_bytes=y_bytes,
        efficiency=efficiency,
        imbalance=1.0,
        compute_seconds=compute,
        launches=2,
        setup_us=3.0,  # two dependent kernels: extra grid dispatch
        footprint=matrix_bytes,
    ),)


def _csr5(batch: ProfileBatch, device: DeviceSpec, precision: str, configs: _Configs, gather):
    v = _itemsize(precision)
    nnz = batch.nnz
    rows = batch.n_rows
    tile_elems = 32 * 16  # omega * sigma
    n_tiles = -(-nnz // tile_elems)
    matrix_bytes = (
        nnz * (IDX + v)              # transposed value/index tiles
        + (rows + 1) * IDX           # row pointer
        + (n_tiles + 1) * IDX        # tile_ptr
        + n_tiles * 2 * IDX          # y_offset / seg_offset words
        + nnz / 8.0                  # bit_flag, one bit per element
    )
    y_bytes = rows * v + n_tiles * v  # partial sums for cross-tile rows
    compute = _reduction_seconds(device, nnz * 1.6 + n_tiles * 96.0, 1.0)
    return (_kernel(
        matrix_bytes=matrix_bytes,
        # Tile transposition interleaves rows within a tile, trimming
        # gather temporal locality slightly.
        x_bytes=gather * 1.22,
        y_bytes=y_bytes,
        efficiency=0.94,
        imbalance=1.0,
        compute_seconds=compute,
        launches=1,  # tile metadata is built at conversion; SpMV is one kernel
        setup_us=6.0,  # tile-scheduler bring-up + calibration epilogue
        footprint=nnz * (IDX + v) + (rows + 1) * IDX + nnz / 8.0,  # CSR + bit flags
    ),)


def _merge_csr(batch: ProfileBatch, device: DeviceSpec, precision: str, configs: _Configs, gather):
    v = _itemsize(precision)
    nnz = batch.nnz
    rows = batch.n_rows
    items = nnz + rows
    items_per_thread = 7 * 32  # merge items per thread-block tile
    partitions = -(-items // items_per_thread)
    matrix_bytes = (
        nnz * (IDX + v)
        + (rows + 1) * IDX * 2       # row pointer read by search + run
        + partitions * 2 * IDX       # partition coordinates
    )
    y_bytes = rows * v + partitions * 2.0 * v  # carry value+row per partition
    search_ops = partitions * (np.log2(rows + 1) + 1.0) * 4.0
    compute = _reduction_seconds(device, nnz * 1.3 + rows * 2.5 + search_ops, 1.0)
    return (_kernel(
        matrix_bytes=matrix_bytes,
        x_bytes=gather,
        y_bytes=y_bytes,
        efficiency=0.93,
        imbalance=1.0,
        compute_seconds=compute,
        launches=1.5,  # partition-search kernel is tiny next to the SpMV
        setup_us=5.0,  # coordinate search + temp-storage bookkeeping
        footprint=nnz * (IDX + v) + (rows + 1) * IDX,  # plain CSR arrays
    ),)


def _dia(batch: ProfileBatch, device: DeviceSpec, precision: str, configs: _Configs, gather):
    """DIA: pure diagonal streaming — no index array, shifted x reads."""
    v = _itemsize(precision)
    rows = batch.n_rows
    n_diags = batch.n_diags
    matrix_bytes = n_diags * rows * v + n_diags * IDX
    # Each diagonal streams a contiguous x window; with few diagonals the
    # windows stay L2-resident, otherwise later diagonals re-fetch.
    x_size = batch.n_cols * v
    resident = np.minimum(1.0, (device.l2_bytes * 0.5) / np.maximum(x_size, 1.0))
    x_bytes = x_size + (1.0 - resident) * np.maximum(n_diags - 1, 0) * rows * v * 0.5
    compute = _reduction_seconds(device, (n_diags * rows).astype(np.float64), 0.6)
    return (_kernel(
        matrix_bytes=matrix_bytes,
        x_bytes=x_bytes,
        y_bytes=rows * v,
        efficiency=0.97,
        imbalance=1.0,
        compute_seconds=compute,
        launches=1,
        setup_us=0.5,
        footprint=matrix_bytes,
    ),)


def _bsr(batch: ProfileBatch, device: DeviceSpec, precision: str, configs: _Configs, gather):
    """BSR: dense-block streaming, one index per ``block_shape`` block."""
    shapes = [config.param("block_shape") for config in configs]
    for r, c in shapes:
        if r < 1 or c < 1:
            raise ConfigError(f"bsr block_shape must be positive, got {(r, c)}")
    v = _itemsize(precision)
    blocks = np.concatenate([_bsr_block_count(batch, shape) for shape in shapes], axis=1)
    area = _row([r * c for r, c in shapes])
    n_brows = -(-batch.n_rows // _row([r for r, _ in shapes]))
    # Block values plus one column index per block; the block-row
    # pointer is streamed but not counted in the footprint.
    footprint = blocks * area * v + blocks * IDX
    compute = _reduction_seconds(device, blocks * area * 1.0, 1.0)
    return (_kernel(
        matrix_bytes=footprint + (n_brows + 1) * IDX,
        # The gather works at block granularity: whole c-wide x slices
        # are read per block, which is kinder to cache lines than
        # per-element gathers (model as a mild locality bonus on the
        # standard estimate).
        x_bytes=0.9 * gather,
        y_bytes=batch.n_rows * v,
        efficiency=0.94,
        imbalance=1.0,
        compute_seconds=compute,
        launches=1,
        setup_us=1.0,
        footprint=footprint,
    ),)


#: Registry: format name -> cost model
#: ``(batch, device, precision, configs, gather)``.  ``batch`` is the
#: ``(N, 1)`` column view (:meth:`ProfileBatch.columns`), ``configs``
#: the K configurations of that format to evaluate and ``gather`` the
#: ``(N, 1)`` x-gather bytes the sweep computes once.  The model returns
#: its cost terms, not costs: one :func:`_kernel` dict per kernel (CSR
#: has three), each term a scalar or an array that broadcasts to
#: ``(N, K)``.  :func:`estimate_batch` assembles every kernel of the
#: sweep in one :func:`_assemble` call.
KERNEL_MODELS: Dict[
    str,
    Callable[
        [ProfileBatch, DeviceSpec, str, _Configs, np.ndarray],
        Tuple[Dict[str, object], ...],
    ],
] = {
    "coo": _coo,
    "csr": _csr,
    "ell": _ell,
    "hyb": _hyb,
    "csr5": _csr5,
    "merge_csr": _merge_csr,
    "dia": _dia,
    "bsr": _bsr,
}


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


#: Field names of CostBreakdown, in declaration order.
_BREAKDOWN_FIELDS = (
    "seconds",
    "matrix_bytes",
    "x_bytes",
    "y_bytes",
    "compute_seconds",
    "launch_seconds",
    "imbalance",
    "efficiency",
    "flops",
)


@dataclass(frozen=True)
class CostBreakdown:
    """Decomposed cost estimate of one SpMV kernel invocation."""

    seconds: float          #: total estimated wall time
    matrix_bytes: float     #: format data streamed from DRAM
    x_bytes: float          #: input-vector gather traffic
    y_bytes: float          #: output traffic (incl. atomic RMW inflation)
    compute_seconds: float  #: reduction / bookkeeping arithmetic time
    launch_seconds: float   #: kernel launch overhead
    imbalance: float        #: multiplicative load-imbalance factor (>= 1)
    efficiency: float       #: achieved fraction of streaming bandwidth
    flops: float            #: useful flops (2 * nnz)

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s implied by this estimate."""
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0


@dataclass(frozen=True)
class CostBreakdownBatch:
    """Cost estimates for N matrices × F formats as ``(N, F)`` arrays.

    Column ``j`` holds the estimates for ``formats[j]``.  Use :meth:`at`
    to materialise a single cell as a plain :class:`CostBreakdown`.
    """

    formats: Tuple[str, ...]
    seconds: np.ndarray
    matrix_bytes: np.ndarray
    x_bytes: np.ndarray
    y_bytes: np.ndarray
    compute_seconds: np.ndarray
    launch_seconds: np.ndarray
    imbalance: np.ndarray
    efficiency: np.ndarray
    flops: np.ndarray
    #: Device bytes of the format's arrays (vectors excluded): what the
    #: executor's memory check compares.  Exact integers below 2**53,
    #: plus CSR5's fractional bit-flag term.
    footprint: np.ndarray

    @property
    def shape(self) -> Tuple[int, int]:
        return tuple(self.seconds.shape)

    @property
    def gflops(self) -> np.ndarray:
        """Achieved GFLOP/s per cell (0 where the estimate is 0)."""
        out = np.zeros_like(self.seconds)
        np.divide(self.flops, self.seconds, out=out, where=self.seconds > 0)
        return out / 1e9

    def column(self, fmt: str) -> int:
        """Column index of ``fmt`` (raises ``ValueError`` if absent)."""
        return self.formats.index(fmt)

    def at(self, i: int, fmt: Union[str, int]) -> CostBreakdown:
        """The scalar :class:`CostBreakdown` of matrix ``i`` under ``fmt``."""
        j = self.column(fmt) if isinstance(fmt, str) else fmt
        return CostBreakdown(
            **{name: float(getattr(self, name)[i, j]) for name in _BREAKDOWN_FIELDS}
        )


#: The default configuration of every kernel model (bare format names).
_DEFAULTS = {fmt: Configuration.default(fmt) for fmt in KERNEL_MODELS}

#: Fields every kernel model returns: the breakdown plus the footprint.
_SWEEP_FIELDS = _BREAKDOWN_FIELDS + ("footprint",)

#: Width cap of the columns that have none (compares false against any
#: row length).
_NO_CAP = np.iinfo(np.int64).max


def _parse(key: str) -> Optional[Configuration]:
    """The configuration a format name or ``fmt?...`` key names (bare
    names need no parse); ``None`` when it names no kernel model."""
    if key in _DEFAULTS:
        return _DEFAULTS[key]
    try:
        return Configuration.from_key(key)
    except ConfigError:
        return None


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class _Plan:
    """How one tuple of keys is swept, built once by :func:`_plan`.

    ``groups`` holds one ``(format, configurations, columns)`` entry per
    format, in order of first appearance: its model is called once with
    those configurations and its ``(N, K)`` result lands in ``columns``
    (a slice when they are contiguous).  ``ell`` and ``width_cap`` give
    the executor's feasibility checks their per-column inputs.
    """

    names: Tuple[str, ...]
    known: Tuple[str, ...]      #: keys that name a kernel model, in order
    unknown: Tuple[str, ...]    #: keys that do not, in order
    groups: Tuple[Tuple[str, _Configs, Union[slice, np.ndarray]], ...]
    ell: np.ndarray             #: (F,) bool, True for ELL columns
    width_cap: np.ndarray       #: (F,) int64, ``_NO_CAP`` where uncapped


@functools.lru_cache(maxsize=64)
def _plan(names: Tuple[str, ...]) -> _Plan:
    """Parse ``names`` and group their columns by format (cached)."""
    configs = tuple(_parse(key) for key in names)
    columns: Dict[str, list] = {}
    for j, config in enumerate(configs):
        if config is not None:
            columns.setdefault(config.format, []).append(j)
    groups = []
    for fmt, cols in columns.items():
        # A slice scatters about twice as fast as an index array; the
        # tuned grid keeps each format's columns together.
        contiguous = cols == list(range(cols[0], cols[-1] + 1))
        dest = slice(cols[0], cols[-1] + 1) if contiguous else _frozen(cols, np.intp)
        groups.append((fmt, tuple(configs[j] for j in cols), dest))
    ell = [config is not None and config.format == "ell" for config in configs]
    caps = [
        config.param("width_cap") if is_ell else None
        for config, is_ell in zip(configs, ell)
    ]
    return _Plan(
        names=names,
        known=tuple(key for key, c in zip(names, configs) if c is not None),
        unknown=tuple(key for key, c in zip(names, configs) if c is None),
        groups=tuple(groups),
        ell=_frozen(ell, bool),
        width_cap=_frozen([_NO_CAP if cap is None else cap for cap in caps], np.int64),
    )


def known_formats(formats: Sequence[str]) -> Tuple[str, ...]:
    """The entries of ``formats`` a kernel model can evaluate, in order:
    bare format names and configuration keys that parse.  Reads the
    cached plan, so a repeated call parses no key."""
    return _plan(tuple(formats)).known


def _as_batch(
    profiles: Union[ProfileBatch, Sequence[MatrixProfile]]
) -> ProfileBatch:
    if isinstance(profiles, ProfileBatch):
        return profiles
    return ProfileBatch.from_profiles(profiles)


def estimate_batch(
    profiles: Union[ProfileBatch, Sequence[MatrixProfile]],
    formats: Optional[Sequence[str]] = None,
    device: DeviceSpec = None,
    precision: str = "single",
) -> CostBreakdownBatch:
    """Evaluate the cost models for N matrices × F formats in one pass.

    Each format's model runs once for all of its configurations among
    ``formats`` and returns its terms; one :func:`_assemble` call turns
    the terms of every kernel into costs, then CSR keeps its fastest
    kernel per cell and ELL applies its chunk factor.  The parse and the
    column layout come from a plan cached per tuple of keys.

    Parameters
    ----------
    profiles:
        A :class:`ProfileBatch` or a sequence of
        :class:`MatrixProfile` objects (packed automatically).
    formats:
        Format names or tuning configuration keys (``"hyb?split=2"``)
        to evaluate (columns of the result, in order; repeats allowed).
        ``None`` evaluates every registered kernel model at its
        defaults.
    device:
        Target :class:`~repro.gpu.device.DeviceSpec` (required).
    precision:
        ``"single"`` or ``"double"``.

    Raises ``KeyError`` for unknown formats and ``ValueError`` for an
    unknown precision.
    """
    if device is None:
        raise TypeError("estimate_batch() requires a device")
    _itemsize(precision)  # validate precision up front
    batch = _as_batch(profiles)
    plan = _plan(tuple(KERNEL_MODELS) if formats is None else tuple(formats))
    if plan.unknown:
        raise KeyError(
            f"unknown format {plan.unknown[0]!r}; expected one of {sorted(KERNEL_MODELS)}"
        )
    columns = batch.columns()
    gather = _gather(columns, device, precision)
    n, f = len(batch), len(plan.names)
    # The first kernel of a format fills the format's own columns; each
    # further kernel (CSR's vector and row-packing ones) gets K extra
    # columns after the F real ones.
    swept = []
    width = f
    for fmt, configs, dest in plan.groups:
        kernels = KERNEL_MODELS[fmt](columns, device, precision, configs, gather)
        dests = [dest]
        for _ in kernels[1:]:
            dests.append(slice(width, width + len(configs)))
            width += len(configs)
        swept.append((kernels, dests))
    terms = dict(zip(_BLOCK_TERMS, np.empty((len(_BLOCK_TERMS), n, width))))
    launches = np.empty((1, width))
    setup_us = np.empty((1, width))
    for kernels, dests in swept:
        for kernel, cols in zip(kernels, dests):
            for name in _BLOCK_TERMS:
                terms[name][:, cols] = kernel[name]
            launches[0, cols] = kernel["launches"]
            setup_us[0, cols] = kernel["setup_us"]
    out = _assemble(columns, device, launches=launches, setup_us=setup_us, **terms)
    # Every field as one (fields, N, F') block, so the per-cell kernel
    # choice moves all fields in one indexing step.
    block = np.stack([out[name] for name in _SWEEP_FIELDS])
    seconds = block[0]  # _SWEEP_FIELDS starts with "seconds"
    for kernels, dests in swept:
        if len(dests) > 1:
            # Per-cell min over the kernels; np.argmin keeps the first
            # on ties.
            cols = np.stack([np.arange(width)[d] for d in dests])  # (kernels, K)
            choice = np.argmin(seconds[:, cols], axis=1)  # (N, K)
            picked = cols[choice, np.arange(cols.shape[1])]  # (N, K) columns
            block[:, :, dests[0]] = block[:, np.arange(n)[:, None], picked]
        if kernels[0]["scale"] is not None:
            seconds[:, dests[0]] *= kernels[0]["scale"]
    fields = np.ascontiguousarray(block[:, :, :f])
    return CostBreakdownBatch(formats=plan.names, **dict(zip(_SWEEP_FIELDS, fields)))
