"""Every format × configuration key computes the right ``y = A·x``.

``as_format(coo, key)`` builds each point of the joint tuning space with
the real data structures; its SpMV must match the COO reference on a
matrix of every generator family and on degenerate matrices.  A key
whose conversion is infeasible (an ELL width cap below the widest row)
must raise ``FormatError`` exactly where the executor reports the same
configuration infeasible.
"""

import numpy as np
import pytest

from repro import tuning
from repro.formats import COOMatrix, as_format
from repro.formats.base import FormatError
from repro.gpu import KEPLER_K40C, ProfileBatch, SpMVExecutor
from repro.matrices import SyntheticCorpus
from repro.matrices.generators import GENERATOR_FAMILIES

KEYS = tuning.tuned_space(tuple(tuning.PARAMETER_GRIDS)) + (
    "bsr?block_shape=3x3",
    "bsr?block_shape=1x1",
    "bsr?block_shape=5x2",
    "bsr?block_shape=1x7",
    "hyb?split=3",
    "csr?lanes=4",
    "ell?width_cap=64",
)


def _coo(shape, row, col):
    row = np.asarray(row, dtype=np.int64)
    return COOMatrix(shape, row, np.asarray(col, dtype=np.int64),
                     np.linspace(1.0, 2.0, row.size))


def _matrices():
    out = []
    for family in GENERATOR_FAMILIES:
        corpus = SyntheticCorpus(scale=0.01, seed=7, max_nnz=3000, families=(family,))
        entry = list(corpus)[0]
        out.append((entry.name, entry.build()))
    out += [
        ("empty_0x0", _coo((0, 0), [], [])),
        ("all_zero_12x9", _coo((12, 9), [], [])),
        ("one_by_one", _coo((1, 1), [0], [0])),
        ("dense_row_6x700", _coo((6, 700), np.full(700, 2), np.arange(700))),
        ("empty_rows_9x5", _coo((9, 5), [0, 0, 4, 8, 8], [0, 4, 2, 1, 3])),
        ("duplicates_5x6", _coo((5, 6), [0, 0, 2, 2, 2, 4], [1, 1, 3, 3, 5, 0])),
    ]
    return out


MATRICES = _matrices()


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
@pytest.mark.parametrize("name,coo", MATRICES, ids=[n for n, _ in MATRICES])
def test_every_configuration_matches_coo_reference(name, coo, dtype):
    coo = coo.astype(dtype)
    x = np.linspace(-1.0, 1.0, coo.n_cols).astype(dtype)
    expected = coo.spmv(x)
    tol = 1e-12 if dtype == np.float64 else 1e-5
    precision = "double" if dtype == np.float64 else "single"
    ex = SpMVExecutor(KEPLER_K40C, precision)
    infeasible = ex.feasibility_batch(ProfileBatch.from_profiles([ex.profile(coo)]), KEYS)[0]
    for key in KEYS:
        try:
            A = as_format(coo, key)
        except FormatError:
            assert key in infeasible, f"{name}: {key} failed to convert"
            continue
        assert key not in infeasible or infeasible[key].error == "OutOfMemoryError"
        y = A.spmv(x)
        assert y.dtype == expected.dtype, key
        np.testing.assert_allclose(y, expected, rtol=tol, atol=tol, err_msg=key)
