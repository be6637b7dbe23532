"""Unified single-pass matrix analysis: profile + the 17 features.

The two hottest per-matrix operations in the pipeline used to run
back-to-back but independently:

* :func:`repro.gpu.profile.profile_matrix` — the structural profile the
  kernel cost models consume, and
* :func:`repro.features.extract.extract_features` — the paper's 17
  features (Sec. IV, Table II).

Each converted the matrix to CSR, re-derived the row lengths, and
re-scanned the column indices; the profile additionally ran four
``np.unique`` full sorts (two gather-line sets, the diagonal count and
the BSR block count).  The paper itself observes (Sec. IV-A) that
feature sets 2–3 need exactly *one* O(nnz) scan — and Elafrou et al.'s
lightweight-selection argument makes the same point operationally:
structural analysis must stay a small fraction of one SpMV for format
selection to pay off.

:func:`analyze_matrix` computes both results from one shared CSR view:

* one CSR conversion, one ``np.diff(indptr)``, one non-empty-row mask;
* one ``int64`` column-index materialisation shared by the gather-line
  scans, the chunk scan and the diagonal/BSR geometry;
* every ``np.unique`` full sort replaced by a sort-free trick:
  gather-line and diagonal counts use bounded boolean occupancy arrays
  (their value ranges are O(n_cols / line) and O(n_rows + n_cols)),
  and the BSR block count first reduces the key stream to per-row
  block transitions (the same transition mask the gather scan uses)
  before a single, much smaller ``np.unique``.

The results are **bit-identical** to the historical two-pass path;
``tests/test_analysis_equivalence.py`` checks that against the original
implementations, which it keeps as frozen oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from .formats import CSRMatrix, SparseFormat
from .gpu.profile import (
    GatherStats,
    MatrixProfile,
    _mean_std,
    _structure_digest,
)

__all__ = [
    "MatrixAnalysis",
    "analyze_matrix",
]


@dataclass(frozen=True)
class MatrixAnalysis:
    """Everything one structural scan of a matrix yields.

    Attributes
    ----------
    profile:
        The :class:`~repro.gpu.profile.MatrixProfile` the kernel cost
        models consume.
    features:
        The paper's 17 features (``repro.features.ALL_FEATURES`` keys).
    """

    profile: MatrixProfile
    features: Dict[str, float]


#: Vector elements per 128-byte x-line at each precision.
_LINE_ELEMS = (("single", 32), ("double", 16))


def _as_csr(matrix: Union[SparseFormat, CSRMatrix]) -> CSRMatrix:
    return matrix if isinstance(matrix, CSRMatrix) else CSRMatrix.from_coo(matrix.to_coo())


def analyze_matrix(matrix: Union[SparseFormat, CSRMatrix]) -> MatrixAnalysis:
    """Compute the profile *and* all 17 features in one shared pass.

    Bit-identical to running the historical profile and feature passes
    back to back, at roughly the cost of one of them: all intermediates
    (CSR view, row lengths, the xor of successive column indices, the
    non-empty-row starts) are computed once and shared, and no
    full-length sort is performed.
    """
    csr = _as_csr(matrix)
    n_rows, n_cols = csr.shape
    nnz = csr.nnz
    indptr = csr.indptr
    lengths = indptr[1:] - indptr[:-1]

    # --- row-length moments (profile + feature sets 1-2) ----------------
    if n_rows:
        mu, sigma = map(float, _mean_std(lengths))
        lmax = int(lengths.max())
        lmin = int(lengths.min())
    else:
        mu = sigma = 0.0
        lmax = lmin = 0

    nonempty = lengths > 0
    n_nonempty = int(np.count_nonzero(nonempty))

    gather: Dict[str, GatherStats] = {}
    if nnz == 0:
        # Warp factors 1, no HYB split, no lines, diagonals or blocks.
        warp_divergence = vector_waste = 1.0
        k = hyb_ell_nnz = hyb_spill = hyb_spill_rows = 0
        for precision, epl in _LINE_ELEMS:
            gather[precision] = GatherStats(epl, 0, 0, -(-max(n_cols, 1) // epl))
        n_diags = bsr_blocks = 0
    else:
        # --- warp-level factors (32-row groups, scalar/vector CSR) ------
        warp_max = np.maximum.reduceat(lengths, np.arange(0, n_rows, 32))
        warp_divergence = float(32.0 * warp_max.sum() / nnz)
        # Rows padded to whole warps: exact integers, one rounding.
        vector_waste = 32 * int(((lengths + 31) >> 5).sum()) / nnz

        # --- HYB split geometry at the paper's mean-row-length threshold
        k = max(1, int(np.ceil(nnz / n_rows)))
        hyb_ell_nnz = int(np.minimum(lengths, k).sum())
        hyb_spill = nnz - hyb_ell_nnz
        hyb_spill_rows = int(np.count_nonzero(lengths > k))

        # --- shared column scan -----------------------------------------
        # Columns are sorted within each row, and two successive columns
        # share an aligned group of 2**s columns (a 4-wide BSR block, a
        # 16- or 32-entry x-line) exactly when their xor is below 2**s.
        # A new group starts there or at a row start; row_starts[0] is 0
        # and every later row start follows one position of step_xor.
        col = csr.indices
        row_starts = indptr[:-1][nonempty]
        step_xor = col[1:] ^ col[:-1]
        xor_at_start = step_xor[row_starts[1:] - 1]

        # --- gather-line statistics, per precision ----------------------
        # Distinct lines: a boolean occupancy array over the 16-entry
        # lines instead of np.unique; a 32-entry line is a pair of them.
        seen16 = np.zeros(2 * -(-n_cols // 32), dtype=bool)
        seen16[col >> 4] = True
        seen = {16: seen16, 32: seen16[0::2] | seen16[1::2]}
        for precision, epl in _LINE_ELEMS:
            line_fetches = (
                1
                + int(np.count_nonzero(step_xor >= epl))
                + int(np.count_nonzero(xor_at_start < epl))
            )
            gather[precision] = GatherStats(
                epl, int(np.count_nonzero(seen[epl])), line_fetches,
                -(-n_cols // epl),
            )

        # --- extension-format geometry (DIA / BSR) ----------------------
        # Each entry's n_rows - 1 - row: its diagonal's offset in
        # [0, n_rows + n_cols - 1) is then one add, and a boolean
        # occupancy array replaces the np.unique sort.
        flip = np.repeat(np.arange(n_rows - 1, -1, -1, dtype=np.int64), lengths)
        seen_d = np.zeros(n_rows + n_cols - 1, dtype=bool)
        seen_d[col + flip] = True
        n_diags = int(np.count_nonzero(seen_d))
        # Occupied 4x4 blocks: each row's block transitions enumerate its
        # (row, block-col) pairs once; dedup across the <=4 rows of a
        # block-row needs one sort of that much smaller key stream.
        new_block = np.empty(nnz, dtype=bool)
        new_block[0] = True
        np.greater_equal(step_xor, 4, out=new_block[1:])
        new_block[row_starts] = True
        at = new_block.nonzero()[0]
        block_keys = (n_rows - 1 - flip.take(at)) >> 2
        block_keys *= -(-n_cols // 4)
        block_keys += col.take(at) >> 2
        block_keys.sort()
        bsr_blocks = int(1 + np.count_nonzero(block_keys[1:] != block_keys[:-1]))

    profile = MatrixProfile(
        n_rows=n_rows,
        n_cols=n_cols,
        nnz=nnz,
        nnz_mu=mu,
        nnz_sigma=sigma,
        nnz_max=lmax,
        nnz_min=lmin,
        empty_rows=n_rows - n_nonempty,
        warp_divergence=max(1.0, warp_divergence),
        vector_waste=max(1.0, vector_waste),
        hyb_threshold=k,
        hyb_ell_nnz=hyb_ell_nnz,
        hyb_spill_nnz=hyb_spill,
        hyb_spill_rows=hyb_spill_rows,
        n_diags=n_diags,
        bsr_blocks=bsr_blocks,
        gather=gather,
        digest=_structure_digest(csr),
    )

    # --- the 17 features (sets 1-3) -------------------------------------
    features: Dict[str, float] = {
        "n_rows": float(n_rows),
        "n_cols": float(n_cols),
        "nnz_tot": float(nnz),
        "nnz_mu": mu if n_rows else 0.0,
        # Table I reports density in percent; we keep the same unit.
        "nnz_frac": 100.0 * nnz / (n_rows * n_cols) if n_rows and n_cols else 0.0,
        "nnz_max": float(lmax) if n_rows else 0.0,
        "nnz_min": float(lmin) if n_rows else 0.0,
        "nnz_sigma": sigma if n_rows else 0.0,
    }

    if nnz == 0:
        features.update(
            nnzb_mu=0.0, nnzb_sigma=0.0, nnzb_min=0.0, nnzb_max=0.0,
            nnzb_tot=0.0, snzb_mu=0.0, snzb_sigma=0.0, snzb_min=0.0,
            snzb_max=0.0,
        )
        return MatrixAnalysis(profile=profile, features=features)

    # Contiguous-chunk scan: a chunk starts where a row starts or where
    # the column index jumps by more than one.
    chunk_start = np.empty(nnz, dtype=bool)
    chunk_start[0] = True
    np.not_equal(col[1:], col[:-1] + 1, out=chunk_start[1:])
    chunk_start[row_starts] = True

    start_pos = chunk_start.nonzero()[0]
    n_chunks = start_pos.size
    chunk_sizes = np.empty_like(start_pos)
    np.subtract(start_pos[1:], start_pos[:-1], out=chunk_sizes[:-1])
    chunk_sizes[-1] = nnz - start_pos[-1]

    # Chunks per row: chunk starts are sorted, so one searchsorted of the
    # row pointers bins them without the per-chunk owner lookup.
    bins = start_pos.searchsorted(indptr, side="left")
    counts = bins[1:] - bins[:-1]

    # nnz > 0 here, so n_rows > 0 too.
    nnzb_mu, nnzb_sigma = _mean_std(counts)
    snzb_mu, snzb_sigma = _mean_std(chunk_sizes)
    features.update(
        nnzb_tot=float(n_chunks),
        nnzb_mu=float(nnzb_mu),
        nnzb_sigma=float(nnzb_sigma),
        nnzb_min=float(counts.min()),
        nnzb_max=float(counts.max()),
        snzb_mu=float(snzb_mu),
        snzb_sigma=float(snzb_sigma),
        snzb_min=float(chunk_sizes.min()),
        snzb_max=float(chunk_sizes.max()),
    )
    return MatrixAnalysis(profile=profile, features=features)
