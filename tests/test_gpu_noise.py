"""Tests for the measurement-noise model."""

import sys
import threading

import numpy as np
import pytest

from repro.gpu import NoiseModel
from repro.gpu.noise import _first_normals

from _label_oracle import structural_factor_per_cell

#: Raw seeds at the SeedSequence word boundaries.
EDGE_RAWS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


class TestStructuralFactor:
    def test_deterministic(self):
        nm = NoiseModel(0.05, 0.0, seed=1)
        a = nm.structural_factor(b"digest", "csr", "K40c", "single")
        b = nm.structural_factor(b"digest", "csr", "K40c", "single")
        assert a == b

    def test_varies_with_every_key_component(self):
        nm = NoiseModel(0.05, 0.0, seed=1)
        base = nm.structural_factor(b"digest", "csr", "K40c", "single")
        assert nm.structural_factor(b"other", "csr", "K40c", "single") != base
        assert nm.structural_factor(b"digest", "ell", "K40c", "single") != base
        assert nm.structural_factor(b"digest", "csr", "P100", "single") != base
        assert nm.structural_factor(b"digest", "csr", "K40c", "double") != base

    def test_seed_gives_new_hardware_instance(self):
        a = NoiseModel(0.05, 0.0, seed=1).structural_factor(b"d", "csr", "K", "single")
        b = NoiseModel(0.05, 0.0, seed=2).structural_factor(b"d", "csr", "K", "single")
        assert a != b

    def test_zero_sigma_is_identity(self):
        nm = NoiseModel(0.0, 0.0)
        assert nm.structural_factor(b"d", "csr", "K", "single") == 1.0

    def test_mean_is_approximately_one(self):
        nm = NoiseModel(0.10, 0.0, seed=0)
        factors = [
            nm.structural_factor(i.to_bytes(4, "little"), "csr", "K", "single")
            for i in range(2000)
        ]
        assert np.mean(factors) == pytest.approx(1.0, abs=0.02)
        assert all(f > 0 for f in factors)


class TestStructuralFactors:
    """The batched draw against the frozen per-cell ``default_rng``."""

    def test_first_normals_match_fresh_generators(self):
        rng = np.random.default_rng(2024)
        raws = EDGE_RAWS + rng.integers(0, 2**64, 10_000, dtype=np.uint64).tolist()
        expected = np.array(
            [np.random.default_rng(r).standard_normal() for r in raws]
        )
        assert _first_normals(raws).tobytes() == expected.tobytes()
        assert _first_normals([]).shape == (0,)

    @pytest.mark.parametrize("seed", (-(2**63), -7, 0, 3, 2**63 - 1))
    def test_batch_equals_per_cell_draw(self, seed):
        nm = NoiseModel(0.05, 0.0, seed=seed)
        fmts = ["csr", "ell", "hyb?split=2", "csr?lanes=8", "csr", "coo"]
        for digest in (b"", b"digest", bytes(range(16))):
            for device, precision in (("Tesla K40c", "single"), ("P100", "double")):
                got = nm.structural_factors(digest, fmts, device, precision)
                want = [
                    structural_factor_per_cell(nm, digest, f, device, precision)
                    for f in fmts
                ]
                assert got.tobytes() == np.array(want).tobytes()
                assert nm.structural_factor(digest, "ell", device, precision) == want[1]

    def test_many_digests(self):
        rng = np.random.default_rng(5)
        nm = NoiseModel(0.3, 0.0, seed=-1)
        fmts = ["csr", "ell?width_cap=512", "bsr"]
        for _ in range(500):
            digest = rng.bytes(16)
            got = nm.structural_factors(digest, fmts, "Tesla P100", "double")
            want = [
                structural_factor_per_cell(nm, digest, f, "Tesla P100", "double")
                for f in fmts
            ]
            assert got.tobytes() == np.array(want).tobytes()

    def test_zero_sigma_returns_ones(self):
        got = NoiseModel(0.0, 0.1).structural_factors(b"d", ["csr", "ell"], "K", "single")
        assert got.tobytes() == np.ones(2).tobytes()

    def test_threads_draw_their_own_cells(self):
        nm = NoiseModel(0.05, 0.0, seed=1)
        fmts = [f"fmt{i}" for i in range(16)]
        want = nm.structural_factors(b"digest", fmts, "K", "single").tobytes()
        results = []

        def work():
            results.extend(
                nm.structural_factors(b"digest", fmts, "K", "single").tobytes()
                for _ in range(200)
            )

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 800


class TestRunJitter:
    def test_shape_and_positivity(self):
        nm = NoiseModel(0.0, 0.05)
        f = nm.run_factors(np.random.default_rng(0), 100)
        assert f.shape == (100,)
        assert np.all(f > 0)

    def test_zero_sigma(self):
        nm = NoiseModel(0.0, 0.0)
        np.testing.assert_array_equal(nm.run_factors(np.random.default_rng(0), 5), 1.0)

    def test_mean_one(self):
        nm = NoiseModel(0.0, 0.10)
        f = nm.run_factors(np.random.default_rng(1), 100_000)
        assert f.mean() == pytest.approx(1.0, abs=0.01)


def test_negative_sigma_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        NoiseModel(-0.1, 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        NoiseModel(0.0, -0.1)
