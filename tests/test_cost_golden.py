"""The cost models, bit for bit, against ``tests/golden/cost_models.json``.

The fixture is written by ``tools/golden_costs.py`` (see its docstring
for what it records and how to regenerate it).  It pins every field of
every cost-model column for the tuned grid plus off-grid keys on every
device and precision, the feasibility failure strings, and a tiny tuned
campaign's dataset bytes.  The scalar entry points (``estimate_time``,
``check_feasible``) are checked cell by cell against the same batch.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.gpu import (
    DEVICES,
    ProfileBatch,
    SimulationError,
    SpMVExecutor,
    estimate_batch,
    profile_matrix,
)
from repro.gpu.kernels import estimate_time

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "tools"))
try:
    import golden_costs
finally:
    sys.path.pop(0)

GOLDEN = json.loads(golden_costs.FIXTURE.read_text())
KEYS = golden_costs.KEYS


@pytest.fixture(scope="module")
def profiles():
    return [profile_matrix(m) for _, m in golden_costs.matrices()]


@pytest.fixture(scope="module")
def batch(profiles):
    return ProfileBatch.from_profiles(profiles)


def test_fixture_describes_the_recorded_sets():
    assert GOLDEN["schema"] == golden_costs.SCHEMA
    assert GOLDEN["keys"] == list(KEYS)
    assert GOLDEN["fields"] == list(golden_costs.FIELDS)
    assert GOLDEN["matrices"] == [name for name, _ in golden_costs.matrices()]


@pytest.mark.parametrize("device_key", sorted(DEVICES))
@pytest.mark.parametrize("precision", golden_costs.PRECISIONS)
def test_cost_columns_match_golden(batch, device_key, precision):
    cell = f"{device_key}/{precision}"
    got = golden_costs.cost_digests(batch, DEVICES[device_key], precision)
    drifted = [key for key in KEYS if got[key] != GOLDEN["costs"][cell][key]]
    assert not drifted, f"{cell}: cost columns drifted for {drifted}"


@pytest.mark.parametrize("device_key", sorted(DEVICES))
@pytest.mark.parametrize("precision", golden_costs.PRECISIONS)
def test_failure_strings_match_golden(batch, device_key, precision):
    cell = f"{device_key}/{precision}"
    got = golden_costs.failure_strings(batch, DEVICES[device_key], precision)
    assert got == GOLDEN["failures"][cell]


@pytest.mark.parametrize("device_key", sorted(DEVICES))
@pytest.mark.parametrize("precision", golden_costs.PRECISIONS)
def test_scalar_entry_points_match_batch_cells(profiles, batch, device_key, precision):
    """Every cell through ``estimate_time`` / ``check_feasible``.

    A cell the batch reports as non-finite (HYB with nothing to store)
    raises ``ZeroDivisionError`` on the scalar path; a cell
    ``feasibility_batch`` fails raises the same string from
    ``check_feasible``.
    """
    device = DEVICES[device_key]
    cost = estimate_batch(batch, KEYS, device, precision)
    for i, prof in enumerate(profiles):
        for j, key in enumerate(KEYS):
            if np.isfinite(cost.seconds[i, j]):
                assert estimate_time(key, prof, device, precision) == cost.at(i, j), (i, key)
            else:
                with pytest.raises(ZeroDivisionError, match="float division by zero"):
                    estimate_time(key, prof, device, precision)
    for limit in golden_costs.PADDING_LIMITS:
        ex = SpMVExecutor(device, precision, ell_padding_limit=limit)
        for i, failed in enumerate(ex.feasibility_batch(batch, KEYS)):
            for key in KEYS:
                if key not in failed:
                    ex.check_feasible(profiles[i], key)
                    continue
                with pytest.raises(SimulationError) as err:
                    ex.check_feasible(profiles[i], key)
                assert f"{type(err.value).__name__}: {err.value}" == str(failed[key])


def test_tuned_campaign_matches_golden():
    assert golden_costs.campaign_record() == GOLDEN["campaign"]
