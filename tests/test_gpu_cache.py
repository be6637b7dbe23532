"""Tests for the L2 gather-traffic model."""

from repro.gpu import KEPLER_K40C, PASCAL_P100, gather_traffic_bytes, profile_matrix
from repro.matrices import banded, clustered, power_law, random_uniform


def test_zero_for_empty_matrix():
    from repro.formats import COOMatrix

    prof = profile_matrix(COOMatrix.empty((10, 10)))
    assert gather_traffic_bytes(prof, KEPLER_K40C, "single") == 0.0


def test_fits_in_l2_traffic_near_compulsory():
    A = banded(2000, 2000, bandwidth=5, seed=0)  # x is 8 KB, far below L2
    prof = profile_matrix(A)
    g = prof.gather["single"]
    traffic = gather_traffic_bytes(prof, KEPLER_K40C, "single")
    compulsory = g.unique_lines * KEPLER_K40C.cache_line_bytes
    worst_case = g.line_fetches * KEPLER_K40C.cache_line_bytes
    # Compulsory misses plus a small conflict-miss term, far from the
    # no-reuse worst case.
    assert compulsory <= traffic <= 0.25 * worst_case


def test_oversized_working_set_pays_refetches():
    # x of 4M singles = 16 MB >> K40c L2 share; scattered accesses.
    A = random_uniform(100_000, 4_000_000, nnz=800_000, seed=1)
    prof = profile_matrix(A)
    g = prof.gather["single"]
    traffic = gather_traffic_bytes(prof, KEPLER_K40C, "single")
    assert traffic > 1.5 * g.unique_lines * KEPLER_K40C.cache_line_bytes


def test_bigger_l2_reduces_traffic():
    A = random_uniform(50_000, 800_000, nnz=600_000, seed=2)
    prof = profile_matrix(A)
    t_kepler = gather_traffic_bytes(prof, KEPLER_K40C, "single")
    t_pascal = gather_traffic_bytes(prof, PASCAL_P100, "single")
    assert t_pascal < t_kepler


def test_locality_reduces_traffic():
    n, nnz = 60_000, 600_000
    local = profile_matrix(clustered(n, n, nnz=nnz, chunk=16, seed=3))
    scattered = profile_matrix(power_law(n, n, nnz=nnz, alpha=2.0, seed=3))
    assert gather_traffic_bytes(local, KEPLER_K40C, "single") < gather_traffic_bytes(
        scattered, KEPLER_K40C, "single"
    )


def test_double_precision_traffic_at_least_single(small_coo):
    prof = profile_matrix(small_coo)
    s = gather_traffic_bytes(prof, KEPLER_K40C, "single")
    d = gather_traffic_bytes(prof, KEPLER_K40C, "double")
    assert d >= s
