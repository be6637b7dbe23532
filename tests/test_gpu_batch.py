"""Batched cost-model evaluation across batch sizes.

The scalar entry points (``estimate_time``, ``check_feasible``,
``benchmark``) are batches of one, so these tests check that a batch of
N reproduces N batches of one *exactly* — same floats bit for bit, same
failure strings, same noise stream — i.e. that no model couples the
rows of a batch.  The values themselves are pinned by
``tests/test_cost_golden.py``.
"""

import numpy as np
import pytest

from repro.formats import FORMAT_NAMES, COOMatrix
from repro.gpu import (
    DEVICES,
    KEPLER_K40C,
    KNL_7250,
    PASCAL_P100,
    VOLTA_V100,
    ProfileBatch,
    SimulationError,
    SpMVExecutor,
    estimate_batch,
    profile_matrix,
)
from repro.gpu.kernels import KERNEL_MODELS, estimate_time
from repro.matrices import banded, power_law

ALL_FORMATS = tuple(KERNEL_MODELS)
DEVICE_KEYS = ("k40c", "p100", "v100", "knl")
BREAKDOWN_FIELDS = (
    "seconds", "matrix_bytes", "x_bytes", "y_bytes", "compute_seconds",
    "launch_seconds", "imbalance", "efficiency", "flops",
)


def _empty_coo(n=10, m=10):
    z = np.array([], dtype=np.int64)
    return COOMatrix((n, m), z, z.copy(), np.array([], dtype=np.float64))


@pytest.fixture(scope="module")
def matrices():
    rng = np.random.default_rng(42)
    skew_row = np.concatenate([np.zeros(200, dtype=int),
                               rng.integers(1, 100, 300)])
    skewed = COOMatrix(
        (100, 250), skew_row, rng.integers(0, 250, 500),
        rng.standard_normal(500),
    )
    return [
        banded(500, 500, bandwidth=9, seed=0),
        power_law(300, 400, nnz=4000, seed=1),
        skewed,
        banded(40, 30, bandwidth=3, seed=2),
        _empty_coo(),
    ]


@pytest.fixture(scope="module")
def profiles(matrices):
    return [profile_matrix(m) for m in matrices]


class TestEstimateBatchEquivalence:
    @pytest.mark.parametrize("device_key", DEVICE_KEYS)
    @pytest.mark.parametrize("precision", ("single", "double"))
    def test_bit_identical_to_scalar(self, profiles, device_key, precision):
        device = DEVICES[device_key]
        batch = estimate_batch(profiles, ALL_FORMATS, device, precision)
        for i, prof in enumerate(profiles):
            for j, fmt in enumerate(batch.formats):
                try:
                    scalar = estimate_time(fmt, prof, device, precision)
                except ZeroDivisionError:
                    # Degenerate cells (e.g. HYB on an empty matrix):
                    # the batch sweep yields a non-finite estimate
                    # instead of raising mid-array.
                    assert not np.isfinite(batch.seconds[i, j])
                    continue
                got = batch.at(i, j)
                for field in BREAKDOWN_FIELDS:
                    assert getattr(got, field) == getattr(scalar, field), (
                        f"{fmt}/{device_key}/{precision} field {field}"
                    )

    def test_formats_default_to_all_kernels(self, profiles):
        batch = estimate_batch(profiles, None, KEPLER_K40C, "single")
        assert batch.formats == ALL_FORMATS
        assert batch.shape == (len(profiles), len(ALL_FORMATS))

    def test_accepts_prepacked_profile_batch(self, profiles):
        packed = ProfileBatch.from_profiles(profiles)
        a = estimate_batch(packed, ("csr",), PASCAL_P100, "double")
        b = estimate_batch(profiles, ("csr",), PASCAL_P100, "double")
        np.testing.assert_array_equal(a.seconds, b.seconds)

    def test_column_index_and_cell_lookup(self, profiles):
        batch = estimate_batch(profiles, ALL_FORMATS, VOLTA_V100, "single")
        j = batch.column("csr")
        assert j == ALL_FORMATS.index("csr")
        assert batch.at(0, "csr") == batch.at(0, j)
        with pytest.raises(ValueError):
            batch.column("csc")

    def test_unknown_format_message_matches_scalar(self, profiles):
        with pytest.raises(KeyError) as batch_err:
            estimate_batch(profiles, ("csc",), KEPLER_K40C, "single")
        with pytest.raises(KeyError) as scalar_err:
            estimate_time("csc", profiles[0], KEPLER_K40C, "single")
        assert str(batch_err.value) == str(scalar_err.value)

    def test_unknown_precision_rejected(self, profiles):
        with pytest.raises(ValueError, match="precision"):
            estimate_batch(profiles, ("csr",), KEPLER_K40C, "half")

    def test_gflops_masked_on_degenerate_cells(self, profiles):
        batch = estimate_batch(profiles, ALL_FORMATS, KEPLER_K40C, "single")
        assert np.all(np.isfinite(batch.gflops))


class TestFeasibilityParity:
    def _giant_ell(self):
        row = np.concatenate([np.zeros(2000, np.int64), np.arange(2000)])
        col = np.concatenate([np.arange(2000) * 1500, np.zeros(2000, np.int64)])
        return COOMatrix((4_000_000, 4_000_000), row, col, np.ones(4000))

    def test_oom_failure_string_matches_scalar(self):
        ex = SpMVExecutor(KEPLER_K40C, "single")
        coo = self._giant_ell()
        with pytest.raises(SimulationError) as err:
            ex.check_feasible(coo, "ell")
        batch = ProfileBatch.from_profiles([ex.profile(coo)])
        failures = ex.feasibility_batch(batch, ("ell", "csr"))[0]
        assert "csr" not in failures
        assert str(failures["ell"]) == f"{type(err.value).__name__}: {err.value}"

    def test_padding_failure_string_matches_scalar(self, matrices):
        skewed = matrices[2]
        ex = SpMVExecutor(KEPLER_K40C, "single", ell_padding_limit=2.0)
        with pytest.raises(SimulationError) as err:
            ex.check_feasible(skewed, "ell")
        batch = ProfileBatch.from_profiles([ex.profile(skewed)])
        failures = ex.feasibility_batch(batch, ("ell",))[0]
        assert str(failures["ell"]) == f"{type(err.value).__name__}: {err.value}"

    def test_feasible_batch_is_empty_dicts(self, matrices):
        ex = SpMVExecutor(KEPLER_K40C, "single")
        batch = ProfileBatch.from_profiles(ex.profile(m) for m in matrices[:2])
        assert ex.feasibility_batch(batch, FORMAT_NAMES) == [{}, {}]


class TestBenchmarkBatchEquivalence:
    @pytest.mark.parametrize("size", (1, 2, 5))
    def test_noise_stream_matches_scalar_loop(self, matrices, size):
        batch_ex = SpMVExecutor(KEPLER_K40C, "single", seed=7)
        loop_ex = SpMVExecutor(KEPLER_K40C, "single", seed=7)
        subset = matrices[:size]
        sweeps = batch_ex.benchmark_batch(subset, formats=ALL_FORMATS, reps=9)
        for m, sweep in zip(subset, sweeps):
            for fmt in ALL_FORMATS:
                try:
                    expected = loop_ex.benchmark(m, fmt, reps=9)
                except (SimulationError, ZeroDivisionError):
                    expected = None
                assert sweep[fmt] == expected, fmt

    @pytest.mark.parametrize("device_key", DEVICE_KEYS)
    def test_parity_across_fleet_double(self, matrices, device_key):
        device = DEVICES[device_key]
        batch_ex = SpMVExecutor(device, "double", seed=3)
        loop_ex = SpMVExecutor(device, "double", seed=3)
        sweeps = batch_ex.benchmark_batch(matrices, formats=ALL_FORMATS, reps=5)
        for m, sweep in zip(matrices, sweeps):
            for fmt in ALL_FORMATS:
                try:
                    expected = loop_ex.benchmark(m, fmt, reps=5)
                except (SimulationError, ZeroDivisionError):
                    expected = None
                assert sweep[fmt] == expected, f"{fmt}/{device_key}"

    def test_zero_reps_rejected(self, matrices):
        ex = SpMVExecutor(KEPLER_K40C, "single")
        with pytest.raises(ValueError, match="reps"):
            ex.benchmark_batch(matrices[:1], reps=0)

    def test_zero_run_noise_draws_nothing(self, matrices):
        from repro.gpu import NoiseModel

        a = SpMVExecutor(KEPLER_K40C, "single", seed=5,
                         noise=NoiseModel(0.1, 0.0))
        b = SpMVExecutor(KEPLER_K40C, "single", seed=5,
                         noise=NoiseModel(0.1, 0.0))
        sweeps = a.benchmark_batch(matrices[:2], formats=("csr",), reps=4)
        # With sigma_run == 0 the rng is untouched, so both executors'
        # streams stay aligned.
        assert np.array_equal(a.rng.standard_normal(3),
                              b.rng.standard_normal(3))
        assert all(s["csr"].std_seconds == 0.0 for s in sweeps)


class TestBenchmarkAllFailures:
    def test_structured_failure_reasons(self, matrices):
        skewed = matrices[2]
        ex = SpMVExecutor(KEPLER_K40C, "single", ell_padding_limit=2.0)
        sweep = ex.benchmark_all(skewed)
        assert sweep["ell"] is None
        assert sweep["csr"] is not None
        assert sweep.failures["ell"].error == "KernelFailure"
        assert "padding" in sweep.failures["ell"].reason

    def test_empty_matrix_degenerate_hyb(self):
        ex = SpMVExecutor(KEPLER_K40C, "single")
        sweep = ex.benchmark_all(_empty_coo())
        assert sweep["hyb"] is None
        assert sweep.failures["hyb"].error == "ZeroDivisionError"
        assert sweep["coo"] is not None

    def test_sweep_is_a_format_dict(self, matrices):
        ex = SpMVExecutor(KEPLER_K40C, "single")
        sweep = ex.benchmark_all(matrices[0])
        assert set(sweep) == set(FORMAT_NAMES)
        assert sweep.failures == {}


class TestFleetDevices:
    def test_registry_covers_fleet(self):
        assert DEVICES["v100"] is VOLTA_V100
        assert DEVICES["knl"] is KNL_7250
        assert VOLTA_V100.arch == "volta"
        assert KNL_7250.arch == "manycore"

    def test_volta_outruns_pascal(self):
        assert VOLTA_V100.peak_bandwidth > PASCAL_P100.peak_bandwidth
        assert VOLTA_V100.peak_gflops("double") > PASCAL_P100.peak_gflops("double")

    def test_manycore_shape(self):
        # Chen et al.-style many-core CPU: huge L2, no fast atomics.
        assert KNL_7250.l2_bytes > VOLTA_V100.l2_bytes
        assert KNL_7250.atomic_efficiency < KEPLER_K40C.atomic_efficiency

    def test_fleet_devices_estimate_all_formats(self, profiles):
        for key in ("v100", "knl"):
            batch = estimate_batch(profiles[:2], ALL_FORMATS,
                                   DEVICES[key], "single")
            assert np.all(batch.seconds > 0)


class TestPresortDispatch:
    def test_small_fit_matches_presorted(self):
        from repro.ml import DecisionTreeClassifier
        from repro.ml.tree import PRESORT_MIN_SAMPLES

        rng = np.random.default_rng(0)
        for n in (PRESORT_MIN_SAMPLES - 1, PRESORT_MIN_SAMPLES + 1):
            X = rng.standard_normal((n, 6))
            y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
            a = DecisionTreeClassifier(max_depth=8, presort=True).fit(X, y)
            b = DecisionTreeClassifier(max_depth=8, presort=False).fit(X, y)
            np.testing.assert_array_equal(a.predict(X), b.predict(X))
            np.testing.assert_array_equal(
                a.feature_importances_, b.feature_importances_
            )
