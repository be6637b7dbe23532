"""Determinism of the benchmark's decisions.

Two short runs with one seed must print the same decision digest and
the same quality metrics, a traced run must not change the decisions,
and a second seed must run and reach the inputs.  Run from the root of
the checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
QUALITY = ("select_accuracy", "select_slowdown_geomean", "ok_share")


def _run(workload: str, seed: int, trace: int = 0, run=RUN):
    proc = subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    digest = next(line for line in lines if line.startswith("decision_digest")).split()[-1]
    quality = {k: result["metrics"][k]["value"] for k in QUALITY if not trace}
    return digest, quality


@pytest.mark.parametrize("workload", ["campaign", "decide", "daemon", "adapt"])
def test_one_seed_gives_identical_decisions(workload):
    first = _run(workload, 11)
    assert _run(workload, 11) == first
    assert _run(workload, 11, trace=1)[0] == first[0]
    assert _run(workload, 12)[0] != first[0]


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / RUN.parent.name)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / RUN.parent.name / RUN.name),
         "--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
