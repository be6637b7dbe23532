"""Tests for the SpMV executor (timing protocol + failure modes)."""

import numpy as np
import pytest

from repro.formats import FORMAT_NAMES, COOMatrix
from repro.gpu import (
    KEPLER_K40C,
    KernelFailure,
    NoiseModel,
    OutOfMemoryError,
    SpMVExecutor,
)
from repro.matrices import banded, power_law


class TestBenchmarkProtocol:
    def test_benchmark_returns_sample(self, kepler_executor, small_coo):
        s = kepler_executor.benchmark(small_coo, "csr", reps=50)
        assert s.fmt == "csr"
        assert s.device == "Tesla K40c"
        assert s.reps == 50
        assert s.seconds > 0
        assert s.gflops == pytest.approx(
            2.0 * small_coo.nnz / s.seconds / 1e9, rel=1e-6
        )

    def test_more_reps_tighter_mean(self, small_coo):
        def mean_spread(reps, trials=20):
            means = []
            for t in range(trials):
                ex = SpMVExecutor(KEPLER_K40C, "single", seed=t)
                means.append(ex.benchmark(small_coo, "csr", reps=reps).seconds)
            return np.std(means) / np.mean(means)

        assert mean_spread(50) < mean_spread(1)

    def test_structural_effect_survives_averaging(self, small_coo, skewed_coo):
        """The fixed effect is identical across executors (same hardware)."""
        a = SpMVExecutor(KEPLER_K40C, "single", seed=1, noise=NoiseModel(0.1, 0.0))
        b = SpMVExecutor(KEPLER_K40C, "single", seed=2, noise=NoiseModel(0.1, 0.0))
        assert a.benchmark(small_coo, "csr").seconds == pytest.approx(
            b.benchmark(small_coo, "csr").seconds
        )

    def test_zero_reps_rejected(self, kepler_executor, small_coo):
        with pytest.raises(ValueError, match="reps"):
            kepler_executor.benchmark(small_coo, "csr", reps=0)

    def test_benchmark_all_covers_formats(self, kepler_executor, small_coo):
        out = kepler_executor.benchmark_all(small_coo)
        assert set(out) == set(FORMAT_NAMES)
        assert all(s is not None for s in out.values())

    def test_profile_recomputed_equal(self, kepler_executor, small_coo):
        p1 = kepler_executor.profile(small_coo)
        assert kepler_executor.profile(small_coo) == p1
        assert kepler_executor.profile(p1) is p1


class TestFailureModes:
    def test_oom_on_giant_ell(self):
        # A 2000-long row over 4M rows: ELL needs 4M x 2000 slots (~32 GB).
        row = np.concatenate([np.zeros(2000, np.int64), np.arange(2000)])
        col = np.concatenate([np.arange(2000) * 1500, np.zeros(2000, np.int64)])
        coo = COOMatrix((4_000_000, 4_000_000), row, col, np.ones(4000))
        ex = SpMVExecutor(KEPLER_K40C, "single")
        with pytest.raises(OutOfMemoryError):
            ex.check_feasible(coo, "ell")
        # ...but CSR handles the same matrix fine.
        ex.check_feasible(coo, "csr")

    def test_optional_padding_guard(self, skewed_coo):
        ex = SpMVExecutor(KEPLER_K40C, "single", ell_padding_limit=2.0)
        with pytest.raises(KernelFailure, match="padding"):
            ex.check_feasible(skewed_coo, "ell")
        # Default: no padding guard.
        SpMVExecutor(KEPLER_K40C, "single").check_feasible(skewed_coo, "ell")

    def test_benchmark_all_marks_failures(self, skewed_coo):
        ex = SpMVExecutor(KEPLER_K40C, "single", ell_padding_limit=2.0)
        out = ex.benchmark_all(skewed_coo)
        assert out["ell"] is None
        assert out["csr"] is not None

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            SpMVExecutor(KEPLER_K40C, "half")


class TestNumericExecution:
    @pytest.mark.parametrize("fmt", FORMAT_NAMES)
    def test_run_computes_product(self, kepler_executor, small_coo, fmt):
        x = np.linspace(0, 1, small_coo.n_cols)
        y, sample = kepler_executor.run(small_coo, fmt, x)
        expected = small_coo.to_dense().astype(np.float32) @ x.astype(np.float32)
        np.testing.assert_allclose(y, expected, rtol=1e-4)
        assert sample.fmt == fmt

    def test_run_double_precision(self, small_coo):
        ex = SpMVExecutor(KEPLER_K40C, "double", seed=0)
        y, _ = ex.run(small_coo, "csr")
        assert y.dtype == np.float64

    def test_run_default_vector_is_ones(self, kepler_executor, small_coo):
        y, _ = kepler_executor.run(small_coo, "csr")
        np.testing.assert_allclose(
            y, small_coo.to_dense().astype(np.float32).sum(axis=1), rtol=1e-4
        )


class TestDeterminism:
    def test_same_seed_same_times(self, small_coo):
        a = SpMVExecutor(KEPLER_K40C, "single", seed=9)
        b = SpMVExecutor(KEPLER_K40C, "single", seed=9)
        assert (
            a.benchmark(small_coo, "csr").seconds
            == b.benchmark(small_coo, "csr").seconds
        )

    def test_estimate_is_noise_free(self, small_coo):
        a = SpMVExecutor(KEPLER_K40C, "single", seed=1)
        b = SpMVExecutor(KEPLER_K40C, "single", seed=2)
        assert a.estimate(small_coo, "csr").seconds == b.estimate(small_coo, "csr").seconds
