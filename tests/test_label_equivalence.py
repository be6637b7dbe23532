"""Bit-for-bit equivalence of ``benchmark_batch`` vs the frozen per-cell loop.

:meth:`repro.gpu.SpMVExecutor.benchmark_batch` labels a matrix in one
vectorised pass.  It must reproduce the historical per-cell loop frozen
in ``_label_oracle`` *exactly*: every :class:`TimingSample` field and
its breakdown to the last bit, every failure entry, and the jitter
stream left behind for the next call, because dataset labels and
campaign shards are keyed off them.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs, tuning
from repro.formats import FORMAT_NAMES
from repro.gpu import DEVICES, KEPLER_K40C, NoiseModel, SpMVExecutor, profile_matrix

from _label_oracle import benchmark_batch_per_cell

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "tools"))
try:
    import golden_costs
finally:
    sys.path.pop(0)

#: The tuned grid plus the golden off-grid keys.
TUNED_KEYS = tuning.tuned_space() + golden_costs.OFF_GRID_KEYS


@pytest.fixture(scope="module")
def profiles():
    """Every generator family, the degenerate matrices, and one matrix
    whose ELL configurations run out of memory."""
    return [profile_matrix(m) for _, m in golden_costs.matrices()]


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _assert_same_value(a, b, where: str) -> None:
    assert type(a) is type(b), f"{where}: {type(a).__name__} != {type(b).__name__}"
    if isinstance(b, float):
        assert _bits(a) == _bits(b), f"{where}: {a!r} != {b!r}"
    else:
        assert a == b, f"{where}: {a!r} != {b!r}"


def _assert_sweeps_identical(new, old) -> None:
    assert len(new) == len(old)
    for i, (s_new, s_old) in enumerate(zip(new, old)):
        assert list(s_new) == list(s_old), f"matrix {i}: keys differ"
        assert s_new.failures == s_old.failures, f"matrix {i}: failures differ"
        assert list(s_new.failures) == list(s_old.failures)
        for fmt, b in s_old.items():
            a = s_new[fmt]
            if b is None:
                assert a is None, f"matrix {i} {fmt}: expected a failure"
                continue
            for f in dataclasses.fields(b):
                if f.name == "breakdown":
                    continue
                _assert_same_value(getattr(a, f.name), getattr(b, f.name),
                                   f"matrix {i} {fmt} {f.name}")
            for f in dataclasses.fields(b.breakdown):
                _assert_same_value(getattr(a.breakdown, f.name),
                                   getattr(b.breakdown, f.name),
                                   f"matrix {i} {fmt} breakdown.{f.name}")


def _pair(device, precision, **kwargs):
    return (SpMVExecutor(device, precision, seed=5, **kwargs),
            SpMVExecutor(device, precision, seed=5, **kwargs))


@pytest.mark.parametrize("device_key", sorted(DEVICES))
@pytest.mark.parametrize("precision", ("single", "double"))
@pytest.mark.parametrize("reps", (1, 2, 50))
def test_batch_matches_per_cell_loop(profiles, device_key, precision, reps):
    new_ex, old_ex = _pair(DEVICES[device_key], precision)
    _assert_sweeps_identical(
        new_ex.benchmark_batch(profiles, formats=TUNED_KEYS, reps=reps),
        benchmark_batch_per_cell(old_ex, profiles, formats=TUNED_KEYS, reps=reps),
    )
    # Batches of one continue the same jitter stream.
    for prof in profiles[:4] + profiles[-4:]:
        _assert_sweeps_identical(
            new_ex.benchmark_batch([prof], formats=FORMAT_NAMES, reps=reps),
            benchmark_batch_per_cell(old_ex, [prof], formats=FORMAT_NAMES, reps=reps),
        )
    assert new_ex.rng.bit_generator.state == old_ex.rng.bit_generator.state


def test_every_kernel_model_and_padding_failures(profiles):
    """All eight models, repeated keys and ELL padding-limit failures."""
    keys = golden_costs.KEYS + ("csr", "hyb?split=2")
    new_ex, old_ex = _pair(KEPLER_K40C, "single", ell_padding_limit=4.0)
    new = new_ex.benchmark_batch(profiles, formats=keys, reps=3)
    old = benchmark_batch_per_cell(old_ex, profiles, formats=keys, reps=3)
    assert any(f.error == "KernelFailure" for s in old for f in s.failures.values())
    assert any(f.error == "OutOfMemoryError" for s in old for f in s.failures.values())
    _assert_sweeps_identical(new, old)
    assert new_ex.rng.bit_generator.state == old_ex.rng.bit_generator.state


def test_matrix_with_no_feasible_format():
    """Every requested ELL configuration runs out of memory: no jitter
    is drawn and every cell is a failure."""
    prof = profile_matrix(golden_costs.giant_ell())
    keys = ("ell", "ell?rows_per_thread=2")
    new_ex, old_ex = _pair(KEPLER_K40C, "single")
    new = new_ex.benchmark_batch([prof, prof], formats=keys, reps=5)
    old = benchmark_batch_per_cell(old_ex, [prof, prof], formats=keys, reps=5)
    assert all(s[k] is None for s in old for k in keys)
    _assert_sweeps_identical(new, old)
    assert new_ex.rng.bit_generator.state == old_ex.rng.bit_generator.state


def test_noise_free_executor(profiles):
    noise = NoiseModel(0.0, 0.0)
    new_ex, old_ex = _pair(KEPLER_K40C, "double", noise=noise)
    _assert_sweeps_identical(
        new_ex.benchmark_batch(profiles, formats=TUNED_KEYS, reps=7),
        benchmark_batch_per_cell(old_ex, profiles, formats=TUNED_KEYS, reps=7),
    )


def test_metrics_match_per_cell_loop(profiles):
    """``gpu.benchmarks`` and the per-format model-seconds histograms."""
    snaps = []
    for run in (benchmark_batch_per_cell, SpMVExecutor.benchmark_batch):
        ex = SpMVExecutor(KEPLER_K40C, "single", seed=5)
        obs.enable()
        obs.reset()
        try:
            run(ex, profiles, formats=TUNED_KEYS, reps=4)
            snaps.append(obs.get_metrics().snapshot())
        finally:
            obs.disable(reset=True)
    assert snaps[0]["gpu.benchmarks"]["value"] > 0
    assert snaps[1] == snaps[0]
