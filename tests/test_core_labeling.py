"""Tests for ground-truth label collection."""

import numpy as np
import pytest

from repro.core import label_matrix
from repro.formats import FORMAT_NAMES
from repro.gpu import KEPLER_K40C, SpMVExecutor


class TestLabelMatrix:
    def test_label_fields(self, kepler_executor, small_coo):
        label = label_matrix(kepler_executor, small_coo, name="m0")
        assert label.name == "m0"
        assert set(label.times) == set(FORMAT_NAMES)
        assert label.best_format in FORMAT_NAMES
        assert label.complete
        assert len(label.features) == 17

    def test_best_format_is_argmin(self, kepler_executor, small_coo):
        label = label_matrix(kepler_executor, small_coo)
        assert label.times[label.best_format] == min(label.times.values())

    def test_gflops_consistent_with_times(self, kepler_executor, small_coo):
        label = label_matrix(kepler_executor, small_coo)
        for fmt in FORMAT_NAMES:
            expected = 2.0 * small_coo.nnz / label.times[fmt] / 1e9
            assert label.gflops[fmt] == pytest.approx(expected, rel=0.01)

    def test_slowdown_of_best_is_one(self, kepler_executor, small_coo):
        label = label_matrix(kepler_executor, small_coo)
        assert label.slowdown(label.best_format) == 1.0
        assert all(label.slowdown(f) >= 1.0 for f in FORMAT_NAMES)

    def test_format_subset(self, kepler_executor, small_coo):
        label = label_matrix(kepler_executor, small_coo, formats=("ell", "csr", "hyb"))
        assert set(label.times) == {"ell", "csr", "hyb"}
        assert label.best_format in {"ell", "csr", "hyb"}

    def test_slowdown_of_failed_format_is_inf(self, skewed_coo):
        ex = SpMVExecutor(KEPLER_K40C, "single", ell_padding_limit=2.0)
        label = label_matrix(ex, skewed_coo)
        assert "ell" in label.failed
        assert label.slowdown("ell") == float("inf")

    def test_failures_recorded(self, skewed_coo):
        ex = SpMVExecutor(KEPLER_K40C, "single", ell_padding_limit=2.0)
        label = label_matrix(ex, skewed_coo)
        assert "ell" in label.failed
        assert not label.complete
        assert "KernelFailure" in label.failed["ell"]

    def test_all_failed_raises(self, skewed_coo):
        ex = SpMVExecutor(KEPLER_K40C, "single", ell_padding_limit=2.0)
        with pytest.raises(ValueError, match="every format failed"):
            label_matrix(ex, skewed_coo, formats=("ell",))

    def test_reps_forwarded(self, kepler_executor, small_coo):
        label = label_matrix(kepler_executor, small_coo, reps=7)
        assert label.times  # just runs; protocol covered by executor tests

    def test_own_analysis_when_stride_sample_collides(self):
        """Two matrices whose structure digests hash the same strided
        sample of ``indices`` still get their own features and profile
        from one executor."""
        from repro.analysis import analyze_matrix
        from repro.formats import COOMatrix

        n = 2000
        rows = np.repeat(np.arange(n), 5)
        cols = np.tile(np.arange(0, 500, 100), n)
        changed = cols.copy()
        changed[1] = 1  # row 0's column 100; the digest's stride skips it
        a = COOMatrix((n, n), rows, cols, np.ones(rows.size))
        b = COOMatrix((n, n), rows, changed, np.ones(rows.size))
        first, second = analyze_matrix(a), analyze_matrix(b)
        assert first.profile.digest == second.profile.digest
        assert first.features["nnzb_tot"] == 10000
        assert second.features["nnzb_tot"] == 9999
        ex = SpMVExecutor(KEPLER_K40C)
        for m, own in ((a, first), (b, second)):
            label = label_matrix(ex, m, formats=("csr",), reps=1)
            assert label.features == own.features
            assert ex.profile(m) == own.profile
