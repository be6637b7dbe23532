"""Tests for the device descriptors."""

import numpy as np
import pytest

from repro.gpu import DEVICES, DeviceSpec, KEPLER_K40C, PASCAL_P100


class TestPresets:
    def test_paper_table3_parameters(self):
        # Table III: 13 Kepler SMs, 192 cores/MP, 12GB, 824 MHz, 1.5MB L2.
        assert KEPLER_K40C.n_sm == 13
        assert KEPLER_K40C.cores_per_sm == 192
        assert KEPLER_K40C.clock_mhz == 824.0
        assert KEPLER_K40C.l2_bytes == 1_572_864
        assert KEPLER_K40C.global_mem_bytes == 12 * 1024**3
        # 56 Pascal SMs, 64 cores/MP, 16GB, 1328 MHz, 4MB L2.
        assert PASCAL_P100.n_sm == 56
        assert PASCAL_P100.cores_per_sm == 64
        assert PASCAL_P100.clock_mhz == 1328.0
        assert PASCAL_P100.l2_bytes == 4_194_304

    def test_registry_aliases(self):
        assert DEVICES["k40c"] is KEPLER_K40C
        assert DEVICES["k80c"] is KEPLER_K40C  # the paper uses both names
        assert DEVICES["p100"] is PASCAL_P100

    def test_pascal_is_faster(self):
        assert PASCAL_P100.peak_bandwidth > KEPLER_K40C.peak_bandwidth
        assert PASCAL_P100.peak_gflops("double") > KEPLER_K40C.peak_gflops("double")
        assert PASCAL_P100.atomic_efficiency > KEPLER_K40C.atomic_efficiency


class TestDerived:
    def test_peak_gflops_precision_ratio(self):
        ratio = KEPLER_K40C.peak_gflops("double") / KEPLER_K40C.peak_gflops("single")
        assert ratio == pytest.approx(KEPLER_K40C.fp64_throughput_ratio)

    def test_stream_bandwidth_below_peak(self):
        for dev in (KEPLER_K40C, PASCAL_P100):
            assert dev.stream_bandwidth < dev.peak_bandwidth

    def test_utilization_monotone_saturating(self):
        dev = KEPLER_K40C
        values = [dev.utilization(w) for w in (0, 1e4, 1e6, 1e8, 1e12)]
        assert values[0] == 0.0
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] <= 1.0
        assert dev.utilization(dev.saturation_bytes) == pytest.approx(0.5)
        # Elementwise over arrays, bit for bit the scalar curve.
        grid = np.array([[0, 1e4, 1e6], [1e8, 1e12, -5.0]])
        expect = [[dev.utilization(w) for w in row] for row in grid.tolist()]
        np.testing.assert_array_equal(dev.utilization(grid), expect)

    def test_with_overrides(self):
        tweaked = KEPLER_K40C.with_overrides(mem_bw_gbps=500.0)
        assert tweaked.mem_bw_gbps == 500.0
        assert tweaked.n_sm == KEPLER_K40C.n_sm
        assert KEPLER_K40C.mem_bw_gbps == 288.0  # original untouched


class TestValidation:
    def test_rejects_unknown_arch(self):
        with pytest.raises(ValueError, match="arch"):
            KEPLER_K40C.with_overrides(arch="fermi")

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError, match="positive"):
            KEPLER_K40C.with_overrides(n_sm=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            KEPLER_K40C.n_sm = 99
