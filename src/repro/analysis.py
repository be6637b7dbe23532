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


def _as_csr(matrix: Union[SparseFormat, CSRMatrix]) -> CSRMatrix:
    return matrix if isinstance(matrix, CSRMatrix) else CSRMatrix.from_coo(matrix.to_coo())


def analyze_matrix(matrix: Union[SparseFormat, CSRMatrix]) -> MatrixAnalysis:
    """Compute the profile *and* all 17 features in one shared pass.

    Bit-identical to running the historical profile and feature passes
    back to back, at roughly the cost of one of them: all intermediates
    (CSR view, row lengths, the ``int64`` column array, the non-empty-row
    starts) are computed once and shared, and no full-length sort is
    performed.
    """
    csr = _as_csr(matrix)
    n_rows, n_cols = csr.shape
    nnz = csr.nnz
    lengths = np.diff(csr.indptr)

    # --- row-length moments (profile + feature sets 1-2) ----------------
    if n_rows:
        mu = float(lengths.mean())
        sigma = float(lengths.std())
        lmax = int(lengths.max())
        lmin = int(lengths.min())
    else:
        mu = sigma = 0.0
        lmax = lmin = 0

    nonempty = lengths > 0
    n_nonempty = int(np.count_nonzero(nonempty))
    row_starts = csr.indptr[:-1][nonempty]

    # --- warp-level factors (32-row groups, scalar/vector CSR) ----------
    if n_rows and nnz:
        pad_rows = (-n_rows) % 32
        padded = np.concatenate([lengths, np.zeros(pad_rows, dtype=lengths.dtype)])
        warp_max = padded.reshape(-1, 32).max(axis=1)
        warp_divergence = float(32.0 * warp_max.sum() / nnz)
        vector_waste = float((np.ceil(lengths / 32.0) * 32.0).sum() / nnz)
    else:
        warp_divergence = 1.0
        vector_waste = 1.0

    # --- HYB split geometry at the paper's mean-row-length threshold ----
    if nnz and n_rows:
        k = max(1, int(np.ceil(nnz / n_rows)))
        clipped = np.minimum(lengths, k)
        hyb_ell_nnz = int(clipped.sum())
        hyb_spill = nnz - hyb_ell_nnz
        hyb_spill_rows = int(np.count_nonzero(lengths > k))
    else:
        k = 0
        hyb_ell_nnz = 0
        hyb_spill = 0
        hyb_spill_rows = 0

    # --- shared int64 column view (gather, chunks, diagonals, blocks) ---
    col = csr.indices.astype(np.int64) if nnz else None

    # --- gather-line statistics, per precision --------------------------
    # Distinct-line counts use a boolean occupancy array over the
    # ceil(n_cols / elems_per_line) possible x-lines instead of the old
    # np.unique full sort: O(nnz + n_cols / epl), sort-free.
    gather: Dict[str, GatherStats] = {}
    for precision, itemsize in (("single", 4), ("double", 8)):
        epl = max(1, 128 // itemsize)
        x_lines = -(-max(n_cols, 1) // epl)
        if nnz == 0:
            gather[precision] = GatherStats(epl, 0, 0, x_lines)
            continue
        line = col // epl
        new_line = np.empty(nnz, dtype=bool)
        new_line[0] = True
        np.not_equal(line[1:], line[:-1], out=new_line[1:])
        new_line[row_starts] = True
        line_fetches = int(np.count_nonzero(new_line))
        seen = np.zeros(x_lines, dtype=bool)
        seen[line] = True
        unique_lines = int(np.count_nonzero(seen))
        gather[precision] = GatherStats(epl, unique_lines, line_fetches, x_lines)

    # --- extension-format geometry (DIA / BSR) --------------------------
    if nnz:
        rows64 = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
        # Occupied diagonals: values live in [-(n_rows-1), n_cols-1], so a
        # boolean occupancy array replaces the np.unique sort.
        seen_d = np.zeros(n_rows + n_cols - 1, dtype=bool)
        seen_d[col - rows64 + (n_rows - 1)] = True
        n_diags = int(np.count_nonzero(seen_d))
        # Occupied 4x4 blocks: block columns are non-decreasing within a
        # row (CSR sorts columns), so per-row transitions enumerate each
        # (row, block-col) pair exactly once; dedup across the <=4 rows
        # of a block-row needs only one np.unique over that much smaller
        # key stream.
        n_bcols = -(-n_cols // 4)
        bcol = col // 4
        new_block = np.empty(nnz, dtype=bool)
        new_block[0] = True
        np.not_equal(bcol[1:], bcol[:-1], out=new_block[1:])
        new_block[row_starts] = True
        block_keys = (rows64[new_block] // 4) * n_bcols + bcol[new_block]
        # Distinct count via one in-place sort of the reduced key stream
        # (np.unique's hash/sort machinery has far higher fixed overhead).
        block_keys.sort()
        bsr_blocks = int(1 + np.count_nonzero(block_keys[1:] != block_keys[:-1]))
    else:
        n_diags = 0
        bsr_blocks = 0

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

    start_pos = np.flatnonzero(chunk_start)
    n_chunks = start_pos.size
    chunk_sizes = np.diff(np.append(start_pos, nnz))

    # Chunks per row: chunk starts are sorted, so one searchsorted of the
    # row pointers bins them without the per-chunk owner lookup.
    counts = np.diff(np.searchsorted(start_pos, csr.indptr, side="left"))

    features.update(
        nnzb_tot=float(n_chunks),
        nnzb_mu=float(counts.mean()) if n_rows else 0.0,
        nnzb_sigma=float(counts.std()) if n_rows else 0.0,
        nnzb_min=float(counts.min()) if n_rows else 0.0,
        nnzb_max=float(counts.max()) if n_rows else 0.0,
        snzb_mu=float(chunk_sizes.mean()),
        snzb_sigma=float(chunk_sizes.std()),
        snzb_min=float(chunk_sizes.min()),
        snzb_max=float(chunk_sizes.max()),
    )
    return MatrixAnalysis(profile=profile, features=features)
