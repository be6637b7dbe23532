"""Bit-for-bit equivalence of COO canonicalisation vs a stable argsort.

:func:`repro.formats.coo._canonicalise` sorts the distinct composite key
``key << bits | position`` by value, which returns the order a stable
sort of ``key`` would; duplicates are therefore summed in their input
order.
The stable-argsort implementation it replaced is frozen below as the
oracle: rows, columns, values and dtypes must match it exactly, also for
duplicates whose floating-point sum depends on the order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import COOMatrix
from repro.formats.base import INDEX_DTYPE
from repro.formats.coo import _canonicalise


def _canonicalise_stable_argsort(shape, row, col, val):
    """Frozen reference: stable argsort of the fused key, then sum runs."""
    if row.size == 0:
        return row, col, val
    key = row.astype(np.int64) * shape[1] + col.astype(np.int64)
    order = np.argsort(key, kind="stable")
    key = key[order]
    row, col, val = row[order], col[order], val[order]
    dup = np.zeros(key.size, dtype=bool)
    dup[1:] = key[1:] == key[:-1]
    if dup.any():
        starts = np.flatnonzero(~dup)
        val = np.add.reduceat(val, starts)
        row, col = row[starts], col[starts]
    return row, col, val


def _assert_same(shape, row, col, val):
    row = np.asarray(row, dtype=INDEX_DTYPE)
    col = np.asarray(col, dtype=INDEX_DTYPE)
    got = _canonicalise(shape, row, col, val)
    want = _canonicalise_stable_argsort(shape, row, col, val)
    for name, a, b in zip(("row", "col", "val"), got, want):
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), f"{name}: {a!r} != {b!r}"


#: Values whose sums depend on the order they are added in.
ORDER_SENSITIVE = (1e16, 1.0, -1e16, -1.0, 0.5, 3.0, -0.0)


@st.composite
def coo_triples(draw):
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 9))
    nnz = draw(st.integers(0, 60))
    row = draw(st.lists(st.integers(0, m - 1), min_size=nnz, max_size=nnz))
    col = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    values = st.one_of(
        st.sampled_from(ORDER_SENSITIVE),
        st.floats(-1e6, 1e6, allow_nan=False, width=32),
    )
    val = np.array(draw(st.lists(values, min_size=nnz, max_size=nnz)), dtype=dtype)
    return (m, n), row, col, val


@settings(max_examples=200, deadline=None)
@given(t=coo_triples())
def test_matches_stable_argsort(t):
    _assert_same(*t)


def test_order_dependent_triplicates():
    """Both coordinates hold 1e16, 1.0 and -1e16, in different orders,
    and their sums differ: only the input order reproduces them."""
    row = [1, 0, 1, 0, 1, 0]
    col = [2, 0, 2, 0, 2, 0]
    val = np.array([1e16, 1.0, 1.0, -1e16, -1e16, 1e16])
    _assert_same((2, 3), row, col, val)
    coo = COOMatrix((2, 3), row, col, val)
    assert list(coo.val) == [1.0, 0.0]


def test_sorted_and_empty_input():
    _assert_same((3, 4), [0, 0, 1, 2], [1, 3, 0, 3], np.arange(4.0))
    _assert_same((3, 4), [], [], np.zeros(0))
    _assert_same((0, 0), [], [], np.zeros(0, dtype=np.float32))


def test_overflow_falls_back_to_stable_argsort():
    """A composite key that could overflow int64 takes the argsort path."""
    big = 2**31 - 1
    row = [big - 1, 0, big - 1, 5, 0]
    col = [big - 1, 7, big - 1, 5, 7]
    val = np.array([1e16, 1.0, -1e16, 2.0, 1e16])
    assert (big * big) << (len(row) - 1).bit_length() >= 2**63
    _assert_same((big, big), row, col, val)


def test_large_random_input_with_duplicates():
    rng = np.random.default_rng(11)
    nnz = 20_000
    row = rng.integers(0, 300, nnz)
    col = rng.integers(0, 200, nnz)
    val = rng.choice(np.array(ORDER_SENSITIVE), nnz) * rng.random(nnz)
    _assert_same((300, 200), row, col, val)
    _assert_same((300, 200), row, col, val.astype(np.float32))


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_constructor_keeps_value_dtype(dtype):
    coo = COOMatrix((4, 4), [3, 0, 3], [1, 2, 1], np.ones(3, dtype=dtype))
    assert coo.val.dtype == dtype and coo.row.dtype == INDEX_DTYPE
    assert coo.nnz == 2
