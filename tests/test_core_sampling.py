"""Tests for the sampling-based adaptive selector (Zardoshti baseline)."""

import numpy as np
import pytest

from repro import analysis
from repro.core import SamplingSelector, sample_rows
from repro.formats import FORMAT_NAMES, COOMatrix
from repro.gpu import KEPLER_K40C, SimulationError, SpMVExecutor
from repro.matrices import banded, power_law


def _count_analyses(monkeypatch):
    """Patch ``analyze_matrix`` to count its calls."""
    calls = []
    real = analysis.analyze_matrix

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(analysis, "analyze_matrix", counting)
    return calls


def _per_format_loop(executor, matrix, formats, reps):
    """Reference: one ``benchmark`` call per format."""
    out = {}
    for fmt in formats:
        try:
            out[fmt] = executor.benchmark(matrix, fmt, reps=reps).seconds
        except SimulationError:
            out[fmt] = None
    return out


def _bits(probe):
    return {f: None if t is None else np.float64(t).tobytes() for f, t in probe.items()}


class TestSampleRows:
    def test_fraction_one_is_identity(self, small_coo):
        s = sample_rows(small_coo, 1.0)
        assert s.shape == small_coo.shape
        assert s.nnz == small_coo.nnz

    def test_sample_shape(self, small_coo):
        s = sample_rows(small_coo, 0.25, seed=1)
        assert s.n_rows == int(np.ceil(0.25 * small_coo.n_rows))
        assert s.n_cols == small_coo.n_cols

    def test_sample_is_contiguous_block(self):
        A = banded(1000, 1000, bandwidth=3, fill=1.0, seed=0)
        s = sample_rows(A, 0.1, seed=2)
        # A contiguous row block of a band matrix is still a band.
        assert s.nnz > 0
        assert s.row_lengths().max() <= 3

    def test_deterministic(self, small_coo):
        a = sample_rows(small_coo, 0.3, seed=7)
        b = sample_rows(small_coo, 0.3, seed=7)
        np.testing.assert_array_equal(a.row, b.row)

    def test_invalid_fraction(self, small_coo):
        with pytest.raises(ValueError, match="fraction"):
            sample_rows(small_coo, 0.0)


class TestSamplingSelector:
    @pytest.fixture(scope="class")
    def executor(self):
        return SpMVExecutor(KEPLER_K40C, "single", seed=0)

    def test_one_analysis_per_probe(self, monkeypatch):
        """A probe analyses its sample once and times every format in
        one sweep, bit for bit the per-format loop; a format that cannot
        run on the sample is ``None``."""
        A = power_law(5000, 5000, nnz=100_000, alpha=1.4, seed=0)
        sel = SamplingSelector(
            SpMVExecutor(KEPLER_K40C, "single", seed=4, ell_padding_limit=1.2),
            fraction=0.2, seed=1,
        )
        calls = _count_analyses(monkeypatch)
        probe = sel.probe(A)
        assert len(calls) == 1
        assert probe["ell"] is None
        ref = SpMVExecutor(KEPLER_K40C, "single", seed=4, ell_padding_limit=1.2)
        sample = sample_rows(A, 0.2, seed=1)
        assert _bits(probe) == _bits(_per_format_loop(ref, sample, FORMAT_NAMES, 3))
        assert sel.executor.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_degenerate_format_still_raises(self):
        sel = SamplingSelector(SpMVExecutor(KEPLER_K40C), fraction=1.0)
        with pytest.raises(ZeroDivisionError):
            sel.probe(COOMatrix.empty((12, 9)))

    def test_probe_covers_formats(self, executor):
        A = banded(20_000, 20_000, bandwidth=8, fill=1.0, seed=1)
        sel = SamplingSelector(executor, fraction=0.1)
        probe = sel.probe(A)
        assert set(probe) == set(FORMAT_NAMES)
        assert all(t is None or t > 0 for t in probe.values())

    def test_picks_sensible_format_for_band(self, executor):
        A = banded(50_000, 50_000, bandwidth=10, fill=1.0, seed=1)
        sel = SamplingSelector(executor, fraction=0.1, seed=3)
        fmt = sel.predict_format(A)
        # A 10%-rows band sample is still a band: regular-structure
        # formats win the probe.
        assert fmt in ("ell", "csr")

    def test_agrees_with_full_measurement_often(self, executor, mini_corpus):
        sel = SamplingSelector(executor, fraction=0.2, probe_reps=5, seed=1)
        hits = 0
        total = 0
        for entry in mini_corpus.entries[:20]:
            A = entry.build()
            times = {
                f: s.seconds
                for f, s in executor.benchmark_all(A).items()
                if s is not None
            }
            best = min(times, key=times.get)
            chosen = sel.predict_format(A)
            slow = times.get(chosen, np.inf) / times[best]
            total += 1
            hits += slow < 1.25  # within 25% of optimal counts as fine
        assert hits / total > 0.5

    def test_probe_cost_positive(self, executor, small_coo):
        sel = SamplingSelector(executor, fraction=0.5)
        assert sel.probe_cost_seconds(small_coo) > 0

    def test_validation(self, executor):
        with pytest.raises(ValueError, match="fraction"):
            SamplingSelector(executor, fraction=2.0)
        with pytest.raises(ValueError, match="probe_reps"):
            SamplingSelector(executor, probe_reps=0)
