"""Common machinery for sparse-matrix storage formats.

Every format in :mod:`repro.formats` derives from :class:`SparseFormat`
and provides

* construction from a canonical :class:`~repro.formats.coo.COOMatrix`
  (``from_coo``) and conversion back (``to_coo``),
* a functional SpMV kernel (``spmv``) that mirrors, in vectorised numpy,
  the parallel decomposition of the corresponding GPU kernel,
* storage accounting (``memory_bytes``, the bytes of the format's
  arrays; the GPU simulator takes each format's device footprint from
  its cost model in :mod:`repro.gpu.batch`, not from here), and
* structural metadata (``shape``, ``nnz``, ``dtype``).

The formats are value types: all underlying arrays are created
read-only so instances can be shared freely between the executor, the
feature extractor and tests without defensive copies (see the
"views, not copies" guidance in the HPC-Python idioms this repo follows).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .coo import COOMatrix

#: numpy dtype used for all index arrays.  GPU SpMV libraries almost
#: universally use 32-bit indices; the simulator's byte accounting
#: relies on this value.
INDEX_DTYPE = np.int32

#: Number of bytes occupied by one index element on the device.
INDEX_BYTES = 4

#: Supported value dtypes, keyed by the paper's "precision" terminology.
PRECISION_DTYPES = {
    "single": np.float32,
    "double": np.float64,
}


class FormatError(ValueError):
    """Raised when a format is constructed from inconsistent arrays."""


def _freeze(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a C-contiguous, read-only array (no copy if possible)."""
    out = np.ascontiguousarray(a)
    if out is a and a.flags.writeable:
        # np.ascontiguousarray may return the input itself; never mutate a
        # caller-owned buffer, flag *our* view read-only instead.
        out = a.view()
    out.flags.writeable = False
    return out


def check_shape(shape: Tuple[int, int]) -> Tuple[int, int]:
    """Validate and normalise a ``(rows, cols)`` shape tuple."""
    try:
        n_rows, n_cols = map(int, shape)
    except (TypeError, ValueError) as exc:  # not a 2-tuple of ints
        raise FormatError(f"shape must be a (rows, cols) pair, got {shape!r}") from exc
    if n_rows < 0 or n_cols < 0:
        raise FormatError(f"shape must be non-negative, got {shape!r}")
    return n_rows, n_cols


def check_vector(x: np.ndarray, n_cols: int, dtype: np.dtype) -> np.ndarray:
    """Validate the SpMV input vector and coerce it to the matrix dtype.

    Parameters
    ----------
    x:
        Dense input vector of length ``n_cols``.
    n_cols:
        Number of matrix columns.
    dtype:
        The matrix value dtype; ``x`` is converted to it so that mixed
        precision does not silently upcast the product.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise FormatError(f"SpMV input must be a 1-D vector, got ndim={x.ndim}")
    if x.shape[0] != n_cols:
        raise FormatError(
            f"SpMV dimension mismatch: matrix has {n_cols} columns, "
            f"vector has {x.shape[0]} entries"
        )
    return np.ascontiguousarray(x, dtype=dtype)


class SparseFormat(abc.ABC):
    """Abstract base class for sparse-matrix storage formats.

    Subclasses set the class attribute :attr:`name` to the lower-case
    format identifier used throughout the package (``"coo"``, ``"csr"``,
    ``"ell"``, ``"hyb"``, ``"csr5"``, ``"merge_csr"``).
    """

    #: Canonical lower-case name of the format (class attribute).
    name: str = "abstract"

    #: Matrix shape as ``(rows, cols)``.
    shape: Tuple[int, int]

    # -- construction -------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def from_coo(cls, coo: "COOMatrix") -> "SparseFormat":
        """Build this format from a canonical COO matrix."""

    @abc.abstractmethod
    def to_coo(self) -> "COOMatrix":
        """Convert back to a canonical (row-major sorted) COO matrix."""

    # -- structural metadata ------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of matrix rows."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of matrix columns."""
        return self.shape[1]

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of stored (structurally non-zero) elements."""

    @property
    @abc.abstractmethod
    def dtype(self) -> np.dtype:
        """Value dtype (``float32`` or ``float64``)."""

    @property
    def precision(self) -> str:
        """``"single"`` or ``"double"``, per the paper's terminology."""
        return "single" if self.dtype == np.float32 else "double"

    # -- behaviour -----------------------------------------------------

    @abc.abstractmethod
    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Compute ``y = A @ x`` using this format's storage layout.

        The implementation follows the data-access pattern of the
        corresponding GPU kernel (e.g. row-per-thread for scalar CSR,
        tile-wise segmented sums for CSR5) expressed with vectorised
        numpy primitives, so it doubles as a functional model of the
        kernel for the execution simulator.
        """

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Device bytes occupied by the matrix data structures.

        This is the *stored* footprint — e.g. for ELL it includes the
        zero padding.  The GPU simulator does not read it: each cost
        model in :mod:`repro.gpu.batch` returns its own ``footprint``.
        """

    # -- conveniences ---------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense 2-D array (testing helper)."""
        return self.to_coo().to_dense()

    def memory_ratio(self) -> float:
        """Stored bytes relative to an ideal CSR footprint.

        A value of ``1.0`` means "as compact as CSR"; ELL on a matrix
        with one long row can be orders of magnitude larger.  Used by
        the HYB split heuristic and by the ELL feasibility guard.
        """
        ideal = (
            self.nnz * (self.dtype.itemsize + INDEX_BYTES)
            + (self.n_rows + 1) * INDEX_BYTES
        )
        return self.memory_bytes() / max(ideal, 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.n_rows}x{self.n_cols} "
            f"nnz={self.nnz} dtype={np.dtype(self.dtype).name}>"
        )
