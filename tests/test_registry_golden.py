"""Registry artifacts written by earlier schemas still load bit-identically.

Each ``tests/golden/registry_v*`` directory was written by
``tools/golden_registry.py`` with the codec of its schema: an xgboost
selector and a decision-tree predictor, plus their predictions on fixed
query rows.  Loading them with this build must reproduce every
prediction bit for bit.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "tools"))
try:
    import golden_registry
finally:
    sys.path.pop(0)

FIXTURES = sorted(golden_registry.GOLDEN.glob("registry_v*"))


def test_v2_fixture_is_committed():
    meta = json.loads(
        (golden_registry.GOLDEN / "registry_v2" / "selector" / "v0001"
         / "meta.json").read_text())
    assert meta["schema"] == "repro-serve-artifact/v2"


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.name)
def test_fixture_loads_bit_identically(fixture, tmp_path):
    copy = tmp_path / fixture.name
    shutil.copytree(fixture, copy)
    assert golden_registry.check(copy)


def test_refit_reproduces_v2_selector(tmp_path):
    """Refitting the fixture's training recipe rebuilds the committed
    selector bit for bit: its compiled table and its importances.

    This pins the booster fit to artifacts written by an earlier build,
    not only to the per-node sorting oracle of ``tests/_ml_oracle.py``."""
    import numpy as np

    from repro.serve import ModelRegistry

    copy = tmp_path / "registry_v2"
    shutil.copytree(golden_registry.GOLDEN / "registry_v2", copy)
    committed, _ = ModelRegistry(copy).load("selector")
    _, refit, _ = golden_registry.train_models()
    old, new = committed.estimator.compiled_, refit.estimator.compiled_
    for name in ("feature", "threshold", "left", "right", "values"):
        a, b = getattr(old, name), getattr(new, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert old.max_depth == new.max_depth
    assert np.array_equal(committed.estimator.feature_importances_,
                          refit.estimator.feature_importances_)
