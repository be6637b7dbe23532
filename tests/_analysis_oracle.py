"""Frozen two-pass reference implementations of the matrix analysis.

These are the exact implementations that :func:`repro.analysis.analyze_matrix`
replaced: a standalone profile pass and a standalone 17-feature pass.
``tests/test_analysis_equivalence.py`` uses them as bit-for-bit oracles
for the one-pass analyzer.  Do not "optimise" them — their value is
being frozen.
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

from repro.analysis import _as_csr
from repro.formats import CSRMatrix, SparseFormat
from repro.gpu.profile import MatrixProfile, _gather_stats, _structure_digest

__all__ = ["profile_matrix_two_pass", "extract_features_two_pass"]


def profile_matrix_two_pass(matrix: Union[SparseFormat, CSRMatrix]) -> MatrixProfile:
    """Reference: the original standalone O(nnz log nnz) profile pass."""
    csr = _as_csr(matrix)
    lengths = np.diff(csr.indptr)
    nnz = csr.nnz
    n_rows = csr.n_rows

    if n_rows:
        mu = float(lengths.mean())
        sigma = float(lengths.std())
        lmax = int(lengths.max())
        lmin = int(lengths.min())
    else:
        mu = sigma = 0.0
        lmax = lmin = 0

    if n_rows and nnz:
        pad_rows = (-n_rows) % 32
        padded = np.concatenate([lengths, np.zeros(pad_rows, dtype=lengths.dtype)])
        warp_max = padded.reshape(-1, 32).max(axis=1)
        warp_divergence = float(32.0 * warp_max.sum() / nnz)
        vector_waste = float((np.ceil(lengths / 32.0) * 32.0).sum() / nnz)
    else:
        warp_divergence = 1.0
        vector_waste = 1.0

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

    gather = {
        "single": _gather_stats(csr, 4),
        "double": _gather_stats(csr, 8),
    }

    if nnz:
        rows64 = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
        cols64 = csr.indices.astype(np.int64)
        n_diags = int(np.unique(cols64 - rows64).size)
        n_bcols = -(-csr.n_cols // 4)
        bsr_blocks = int(np.unique((rows64 // 4) * n_bcols + cols64 // 4).size)
    else:
        n_diags = 0
        bsr_blocks = 0

    return MatrixProfile(
        n_rows=n_rows,
        n_cols=csr.n_cols,
        nnz=nnz,
        nnz_mu=mu,
        nnz_sigma=sigma,
        nnz_max=lmax,
        nnz_min=lmin,
        empty_rows=int(np.count_nonzero(lengths == 0)),
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


def extract_features_two_pass(
    matrix: Union[SparseFormat, CSRMatrix],
) -> Dict[str, float]:
    """Reference: the original standalone 17-feature extraction pass."""
    csr = _as_csr(matrix)
    n_rows, n_cols = csr.shape
    nnz = csr.nnz
    lengths = np.diff(csr.indptr)

    feats: Dict[str, float] = {
        "n_rows": float(n_rows),
        "n_cols": float(n_cols),
        "nnz_tot": float(nnz),
        "nnz_mu": float(lengths.mean()) if n_rows else 0.0,
        "nnz_frac": 100.0 * nnz / (n_rows * n_cols) if n_rows and n_cols else 0.0,
        "nnz_max": float(lengths.max()) if n_rows else 0.0,
        "nnz_min": float(lengths.min()) if n_rows else 0.0,
        "nnz_sigma": float(lengths.std()) if n_rows else 0.0,
    }

    if nnz == 0:
        feats.update(
            nnzb_mu=0.0, nnzb_sigma=0.0, nnzb_min=0.0, nnzb_max=0.0,
            nnzb_tot=0.0, snzb_mu=0.0, snzb_sigma=0.0, snzb_min=0.0,
            snzb_max=0.0,
        )
        return feats

    col = csr.indices.astype(np.int64)
    chunk_start = np.empty(nnz, dtype=bool)
    chunk_start[0] = True
    np.not_equal(col[1:], col[:-1] + 1, out=chunk_start[1:])
    row_starts = csr.indptr[:-1][lengths > 0]
    chunk_start[row_starts] = True

    start_pos = np.flatnonzero(chunk_start)
    n_chunks = start_pos.size
    chunk_sizes = np.diff(np.append(start_pos, nnz))

    counts = np.zeros(n_rows, dtype=np.int64)
    if n_rows:
        owner = np.searchsorted(csr.indptr, start_pos, side="right") - 1
        np.add.at(counts, owner, 1)

    feats.update(
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
    return feats
