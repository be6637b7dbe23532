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
