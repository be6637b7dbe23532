#!/usr/bin/env python
"""Golden fixture of the kernel cost models, feasibility checks and labels.

Records what the simulated device reports, bit for bit, so the cost
physics can be restructured without silently changing any dataset:

* every :class:`~repro.gpu.batch.CostBreakdownBatch` field of
  ``estimate_batch`` for :data:`KEYS` (the tuned grid over all eight
  kernel models plus off-grid keys) over :func:`matrices` (a seeded
  sample of every generator family plus degenerate matrices), per
  device of ``DEVICES`` × precision — stored as one sha256 per column
  over the raw float64 bytes of the nine fields;
* the ``feasibility_batch`` failure strings, verbatim, with and without
  an ELL padding limit;
* the sha256 of ``times`` / ``feature_array`` and the failure strings
  of a tiny seeded tuned campaign.

Usage::

    PYTHONPATH=src python tools/golden_costs.py            # rewrite the fixture
    PYTHONPATH=src python tools/golden_costs.py --check    # exit 1 on drift

``tests/test_cost_golden.py`` compares the live package against the
committed file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro import tuning
from repro.bench.campaign import run_campaign
from repro.formats import COOMatrix
from repro.gpu import (
    DEVICES,
    KEPLER_K40C,
    ProfileBatch,
    SpMVExecutor,
    estimate_batch,
    profile_matrix,
)
from repro.gpu.kernels import KERNEL_MODELS
from repro.matrices import SyntheticCorpus
from repro.matrices.generators import GENERATOR_FAMILIES

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "golden" / "cost_models.json"

SCHEMA = "repro-golden-costs/v1"

#: Off-grid configuration keys: valid parameter values the campaign
#: grids never sweep.
OFF_GRID_KEYS = ("bsr?block_shape=3x3", "hyb?split=3", "csr?lanes=4", "ell?width_cap=64")

#: Every grid configuration of every kernel model, then the off-grid keys.
KEYS = tuning.tuned_space(tuple(KERNEL_MODELS)) + OFF_GRID_KEYS

PRECISIONS = ("single", "double")

#: ELL padding limits the feasibility record runs with.
PADDING_LIMITS = (None, 4.0)

FIELDS = (
    "seconds", "matrix_bytes", "x_bytes", "y_bytes", "compute_seconds",
    "launch_seconds", "imbalance", "efficiency", "flops",
)


def _coo(shape, row, col) -> COOMatrix:
    row = np.asarray(row, dtype=np.int64)
    col = np.asarray(col, dtype=np.int64)
    return COOMatrix(shape, row, col, np.linspace(1.0, 2.0, row.size))


def degenerate_matrices() -> List[Tuple[str, COOMatrix]]:
    """Empty, all-zero, 1×1 and single-dense-row matrices."""
    return [
        ("empty_0x0", _coo((0, 0), [], [])),
        ("all_zero_12x9", _coo((12, 9), [], [])),
        ("one_by_one", _coo((1, 1), [0], [0])),
        ("dense_row_6x700", _coo((6, 700), np.full(700, 2), np.arange(700))),
    ]


def giant_ell() -> COOMatrix:
    """4M × 4M, 4000 non-zeros, one 2000-wide row: ELL runs out of memory."""
    row = np.concatenate([np.zeros(2000, np.int64), np.arange(2000)])
    col = np.concatenate([np.arange(2000) * 1500, np.zeros(2000, np.int64)])
    return _coo((4_000_000, 4_000_000), row, col)


def matrices() -> List[Tuple[str, COOMatrix]]:
    """The seeded profile set: three matrices per generator family, then
    the degenerate matrices and one matrix too large for ELL."""
    out = []
    for family in GENERATOR_FAMILIES:
        corpus = SyntheticCorpus(scale=0.01, seed=7, max_nnz=20_000, families=(family,))
        out.extend((e.name, e.build()) for e in list(corpus)[:3])
    out.extend(degenerate_matrices())
    out.append(("giant_ell", giant_ell()))
    return out


def _sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def cost_digests(batch: ProfileBatch, device, precision: str) -> Dict[str, str]:
    """``key -> sha256`` over the nine fields of each column."""
    cost = estimate_batch(batch, KEYS, device, precision)
    return {
        key: _sha(*(getattr(cost, f)[:, j] for f in FIELDS))
        for j, key in enumerate(cost.formats)
    }


def failure_strings(batch: ProfileBatch, device, precision: str) -> Dict[str, Dict[str, str]]:
    """``"<limit>/<matrix index>" -> {key: failure string}`` (non-empty only)."""
    out = {}
    for limit in PADDING_LIMITS:
        ex = SpMVExecutor(device, precision, ell_padding_limit=limit)
        for i, failed in enumerate(ex.feasibility_batch(batch, KEYS)):
            if failed:
                out[f"{limit}/{i}"] = {k: str(f) for k, f in failed.items()}
    return out


def campaign_record() -> Dict:
    """Digests of a tiny seeded tuned campaign's dataset."""
    corpus = list(SyntheticCorpus(scale=0.005, seed=11, max_nnz=100_000))
    result = run_campaign(corpus, KEPLER_K40C, "single", tuned=True, reps=4,
                          seed=0, workers=1, shard_dir=None)
    ds = result.to_dataset()
    return {
        "formats": list(ds.formats),
        "names": list(ds.names),
        "times_sha256": hashlib.sha256(ds.times.tobytes()).hexdigest(),
        "feature_array_sha256": hashlib.sha256(ds.feature_array.tobytes()).hexdigest(),
        "failures": result.failures,
    }


def record() -> Dict:
    """The full fixture as a JSON-able dict."""
    named = matrices()
    batch = ProfileBatch.from_profiles(profile_matrix(m) for _, m in named)
    costs, failures = {}, {}
    for dev_key, device in DEVICES.items():
        for precision in PRECISIONS:
            cell = f"{dev_key}/{precision}"
            costs[cell] = cost_digests(batch, device, precision)
            failures[cell] = failure_strings(batch, device, precision)
    return {
        "schema": SCHEMA,
        "matrices": [name for name, _ in named],
        "keys": list(KEYS),
        "fields": list(FIELDS),
        "costs": costs,
        "failures": failures,
        "campaign": campaign_record(),
    }


def dumps(rec: Dict) -> str:
    return json.dumps(rec, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=FIXTURE,
                    help="write the fixture here (default: %(default)s)")
    ap.add_argument("--check", action="store_true",
                    help="compare against the committed fixture instead; exit 1 on drift")
    args = ap.parse_args(argv)
    text = dumps(record())
    if args.check:
        if FIXTURE.read_text() != text:
            print(f"cost models drifted from {FIXTURE}", file=sys.stderr)
            return 1
        print("cost models match the golden fixture")
        return 0
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
