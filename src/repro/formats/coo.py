"""COO (coordinate) sparse-matrix format.

COO stores three parallel dense arrays — row indices, column indices and
values — one entry per structural non-zero (paper Sec. II-A.1,
Fig. 1(a)).  It is the canonical interchange format in this package:
every other format converts through it.

The GPU kernel modelled here is Bell & Garland's segmented-reduction
COO SpMV: every non-zero's product is computed by an independent thread
and contributions belonging to the same row are combined with a
segmented reduction, which makes performance almost insensitive to the
sparsity structure (excellent load balance) at the cost of streaming an
extra row-index array and performing inter-thread reduction work.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .base import (
    INDEX_BYTES,
    INDEX_DTYPE,
    FormatError,
    SparseFormat,
    _freeze,
    check_shape,
    check_vector,
)

__all__ = ["COOMatrix"]


class COOMatrix(SparseFormat):
    """Coordinate-format sparse matrix (canonical interchange format).

    Parameters
    ----------
    shape:
        ``(rows, cols)`` of the logical matrix.
    row, col:
        Integer index arrays of equal length ``nnz``.
    val:
        Value array of the same length, ``float32`` or ``float64``.
    canonical:
        If True (default) the entries are sorted row-major
        (row, then column) and duplicate coordinates are summed, which
        is the invariant the rest of the package relies on.  Pass False
        only when the caller guarantees canonical order already.

    Notes
    -----
    All arrays are stored read-only.  With ``canonical=True`` the
    constructor stores sorted copies of non-empty input; with
    ``canonical=False`` it copies only to convert an index array to
    ``int32``, a value array to ``float64`` or an array to C order.
    """

    name = "coo"

    def __init__(
        self,
        shape: Tuple[int, int],
        row: np.ndarray,
        col: np.ndarray,
        val: np.ndarray,
        *,
        canonical: bool = True,
    ) -> None:
        self.shape = check_shape(shape)
        row = np.asarray(row, dtype=INDEX_DTYPE)
        col = np.asarray(col, dtype=INDEX_DTYPE)
        val = np.asarray(val)
        if val.dtype not in (np.float32, np.float64):
            val = val.astype(np.float64)
        if not (row.ndim == col.ndim == val.ndim == 1):
            raise FormatError("row, col and val must be 1-D arrays")
        if not (row.shape == col.shape == val.shape):
            raise FormatError(
                f"row/col/val length mismatch: {row.shape}, {col.shape}, {val.shape}"
            )
        if row.size:
            if row.min(initial=0) < 0 or col.min(initial=0) < 0:
                raise FormatError("negative indices are not allowed")
            if row.max(initial=-1) >= self.shape[0]:
                raise FormatError(
                    f"row index {row.max()} out of bounds for {self.shape[0]} rows"
                )
            if col.max(initial=-1) >= self.shape[1]:
                raise FormatError(
                    f"column index {col.max()} out of bounds for {self.shape[1]} columns"
                )
        if canonical:
            row, col, val = _canonicalise(self.shape, row, col, val)
        self.row = _freeze(row)
        self.col = _freeze(col)
        self.val = _freeze(val)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_coo(cls, coo: "COOMatrix") -> "COOMatrix":
        """Identity conversion (shared, the arrays are immutable)."""
        return coo

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, dtype: Optional[np.dtype] = None) -> "COOMatrix":
        """Build a COO matrix from a dense 2-D array, dropping exact zeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise FormatError("from_dense expects a 2-D array")
        row, col = np.nonzero(dense)
        val = dense[row, col]
        if dtype is not None:
            val = val.astype(dtype)
        return cls(dense.shape, row, col, val)

    @classmethod
    def empty(cls, shape: Tuple[int, int], dtype=np.float64) -> "COOMatrix":
        """An all-zero matrix of the given shape."""
        z = np.zeros(0)
        return cls(shape, z, z, z.astype(dtype))

    def to_coo(self) -> "COOMatrix":
        return self

    def astype(self, dtype) -> "COOMatrix":
        """Return a copy with values cast to ``dtype`` (``float32``/``float64``)."""
        dtype = np.dtype(dtype)
        if dtype == self.val.dtype:
            return self
        return COOMatrix(
            self.shape, self.row, self.col, self.val.astype(dtype), canonical=False
        )

    # -- metadata -------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.val.size)

    @property
    def dtype(self) -> np.dtype:
        return self.val.dtype

    def row_lengths(self) -> np.ndarray:
        """Number of stored entries in each row (length ``n_rows``)."""
        return np.bincount(self.row, minlength=self.n_rows).astype(np.int64)

    def memory_bytes(self) -> int:
        """COO stores row + col indices and values for every non-zero."""
        return self.nnz * (2 * INDEX_BYTES + self.dtype.itemsize)

    # -- behaviour ------------------------------------------------------

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Segmented-reduction COO SpMV (Bell & Garland).

        Every non-zero contributes ``val * x[col]``; contributions are
        reduced per row.  ``np.add.at`` is the numpy rendering of the
        atomics/segmented-scan combination used on the GPU.
        """
        x = check_vector(x, self.n_cols, self.dtype)
        y = np.zeros(self.n_rows, dtype=self.dtype)
        if self.nnz:
            products = self.val * x[self.col]
            # Canonical order means equal rows are contiguous: reduceat is
            # the segmented reduction.  Fall back to add.at for safety when
            # the invariant cannot be assumed (never in practice).
            np.add.at(y, self.row, products)
        return y

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.dtype)
        # Duplicates were summed at construction; direct assignment is safe.
        dense[self.row, self.col] = self.val
        return dense

    # -- structural transforms -------------------------------------------

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (canonicalised)."""
        return COOMatrix((self.n_cols, self.n_rows), self.col, self.row, self.val)

    def select_rows(self, mask: np.ndarray) -> "COOMatrix":
        """Extract the sub-matrix of rows where ``mask`` is True.

        Row indices are *not* compacted — the result has the same shape —
        which is exactly the slicing HYB needs to split rows between its
        ELL and COO parts.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_rows,):
            raise FormatError("row mask must have one entry per row")
        keep = mask[self.row]
        return COOMatrix(
            self.shape, self.row[keep], self.col[keep], self.val[keep], canonical=False
        )


def _canonicalise(
    shape: Tuple[int, int], row: np.ndarray, col: np.ndarray, val: np.ndarray
):
    """Sort entries row-major and sum duplicate coordinates.

    Duplicates are summed in their input order.  The sort runs on the
    distinct composite ``key << bits | position`` (``2**bits >= nnz``),
    so any sort returns the order a stable sort of ``key`` would, and a
    plain value sort is much cheaper than a stable argsort; shifts and
    masks recover ``key`` and the order.  When that composite could
    overflow int64 the stable argsort of ``key`` runs instead.
    """
    nnz = row.size
    if nnz == 0:
        return row, col, val
    # Single-key lexsort via a fused 64-bit key is measurably faster than
    # np.lexsort for the corpus sizes used here.
    key = row.astype(np.int64)
    key *= shape[1]
    key += col
    bits = (nnz - 1).bit_length()
    if (shape[0] * shape[1]) << bits < 2**63:  # Python ints: no overflow
        key <<= bits
        key |= np.arange(nnz, dtype=np.int64)
        key.sort()
        order = key & ((1 << bits) - 1)
        key >>= bits
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
    new = np.empty(nnz, dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    val = val.take(order)
    if not new.all():
        # Collapse runs of equal coordinates, summing their values.
        starts = new.nonzero()[0]
        val = np.add.reduceat(val, starts)
        order = order.take(starts)
    return row.take(order), col.take(order), val
