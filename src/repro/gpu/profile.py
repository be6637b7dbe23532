"""Structural matrix profile consumed by the kernel cost models.

A :class:`MatrixProfile` is the result of one O(nnz) analysis pass over
a matrix.  It collects every structure statistic the per-format cost
models need — row-length moments, warp-level divergence/waste factors,
the HYB split geometry, and cache-line gather statistics for the input
vector in both precisions — so that estimating all six formats costs a
single scan, mirroring how the feature extractor works (paper
Sec. IV-A notes feature sets 2–3 need exactly one O(nnz) scan).

The gather statistics deliberately capture *more* structure than the
paper's 17 features (true unique-cache-line counts at 128-byte
granularity): this is the "hidden" physical detail that keeps the ML
problem realistic — features explain most, but not all, of the
performance variance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from ..formats import CSRMatrix, SparseFormat

__all__ = ["MatrixProfile", "GatherStats", "profile_matrix"]


@dataclass(frozen=True)
class GatherStats:
    """Cache-line statistics of the x-vector gather at one precision.

    Attributes
    ----------
    elems_per_line:
        Vector elements per 128-byte cache line (32 fp32 / 16 fp64).
    unique_lines:
        Distinct x-lines touched anywhere in the matrix — the cold
        (compulsory) traffic.
    line_fetches:
        Sum over rows of distinct lines touched in that row — the
        traffic if no reuse survives across rows (streaming worst case).
    x_lines:
        Lines spanned by the whole x vector (``ceil(n_cols / epl)``).
    """

    elems_per_line: int
    unique_lines: int
    line_fetches: int
    x_lines: int


@dataclass(frozen=True)
class MatrixProfile:
    """One-pass structural summary of a sparse matrix.

    All fields are plain numbers so profiles are cheap to cache and
    hash; see :func:`profile_matrix`.
    """

    n_rows: int
    n_cols: int
    nnz: int
    # Row-length distribution
    nnz_mu: float       #: mean entries per row
    nnz_sigma: float    #: population std-dev of entries per row
    nnz_max: int        #: longest row
    nnz_min: int        #: shortest row
    empty_rows: int     #: rows with no entries
    # Warp-level factors (32-row groups, as scheduled by scalar CSR)
    warp_divergence: float  #: sum(32 * warp_max) / nnz, >= 1; scalar-CSR cost inflation
    vector_waste: float     #: sum(ceil(len/32)*32) / nnz, >= 1; warp-per-row lane waste
    # HYB split geometry at the paper's nnz_mu threshold
    hyb_threshold: int   #: ELL width k of the HYB split
    hyb_ell_nnz: int     #: entries stored in the ELL part
    hyb_spill_nnz: int   #: entries spilled to the COO part
    hyb_spill_rows: int  #: rows longer than k (rows receiving atomic updates)
    # Extension-format geometry (DIA / BSR, see repro.formats.dia/bsr)
    n_diags: int         #: occupied diagonals (DIA plane height)
    bsr_blocks: int      #: occupied 4x4 blocks (BSR block count)
    # Gather locality, per precision
    gather: Dict[str, GatherStats]
    # Stable identity for noise fixed effects
    digest: bytes

    @property
    def density(self) -> float:
        """Fraction of cells that are non-zero."""
        cells = self.n_rows * self.n_cols
        return self.nnz / cells if cells else 0.0

    @property
    def row_cv(self) -> float:
        """Coefficient of variation of the row lengths (σ/μ)."""
        return self.nnz_sigma / self.nnz_mu if self.nnz_mu > 0 else 0.0

    @property
    def ell_width(self) -> int:
        """ELL padded width (= longest row)."""
        return self.nnz_max

    @property
    def ell_padding_ratio(self) -> float:
        """ELL stored slots per non-zero (>= 1)."""
        if self.nnz == 0:
            return 1.0
        return self.n_rows * self.nnz_max / self.nnz


def _mean_std(a: np.ndarray, axis=None):
    """``(a.mean(axis), a.std(axis))`` from one shared sum.

    Runs numpy's own ``mean``/``std`` operation sequence (one
    ``np.add.reduce``, then a squared-deviation pass, integers summed as
    float64), so both results are bit for bit numpy's, at a fraction of
    the calls.  ``axis=None`` returns 0-d results.
    """
    n = a.size if axis is None else a.shape[axis]
    dtype = np.float64 if a.dtype.kind in "biu" else None
    mean = np.add.reduce(a, axis=axis, dtype=dtype, keepdims=True)
    mean /= n
    dev = a - mean
    dev *= dev
    var = np.add.reduce(dev, axis=axis, dtype=dtype) / n
    return mean.reshape(np.shape(var)), np.sqrt(var)


def _structure_digest(csr: CSRMatrix) -> bytes:
    """Stable 16-byte digest of the matrix structure.

    Hashes the shape plus a bounded stride sample of the index arrays,
    so it is O(1)-ish for huge matrices yet collision-free in practice
    for distinct corpus matrices.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64([csr.n_rows, csr.n_cols, csr.nnz]).tobytes())
    for arr in (csr.indptr, csr.indices):
        step = max(1, arr.size // 4096)
        h.update(np.ascontiguousarray(arr[::step]).tobytes())
    return h.digest()


def _gather_stats(csr: CSRMatrix, itemsize: int, line_bytes: int = 128) -> GatherStats:
    """Cache-line gather statistics at the given value size."""
    epl = max(1, line_bytes // itemsize)
    x_lines = -(-max(csr.n_cols, 1) // epl)
    if csr.nnz == 0:
        return GatherStats(epl, 0, 0, x_lines)
    line = csr.indices.astype(np.int64) // epl
    # Canonical CSR sorts columns within each row, so per-row distinct
    # lines are transitions of `line` plus one per non-empty row.
    new_line = np.empty(line.size, dtype=bool)
    new_line[0] = True
    np.not_equal(line[1:], line[:-1], out=new_line[1:])
    lengths = np.diff(csr.indptr)
    starts = csr.indptr[:-1][lengths > 0]
    new_line[starts] = True
    line_fetches = int(np.count_nonzero(new_line))
    unique_lines = int(np.unique(line).size)
    return GatherStats(epl, unique_lines, line_fetches, x_lines)


def profile_matrix(matrix: Union[SparseFormat, CSRMatrix]) -> MatrixProfile:
    """Run the single O(nnz) analysis pass and return the profile.

    Thin wrapper over :func:`repro.analysis.analyze_matrix`, which
    computes this profile *and* the 17 features from one shared scan;
    callers needing both should use ``analyze_matrix`` directly so the
    scan is not repeated.  Results are bit-identical to the historical
    standalone pass (see ``tests/test_analysis_equivalence.py``).
    """
    from ..analysis import analyze_matrix

    return analyze_matrix(matrix).profile
