#!/usr/bin/env python
"""Golden model-registry fixture: artifacts written by this build's codec.

Trains two tiny models on a seeded synthetic dataset and saves them
through :class:`~repro.serve.ModelRegistry`:

* ``selector`` — an xgboost :class:`~repro.core.FormatSelector`
  (boosted trees plus their compiled table), promoted to production;
* ``predictor`` — a decision-tree
  :class:`~repro.core.predictor.PerformancePredictor`.

The version directories go to ``tests/golden/registry_<schema>/`` (the
artifact schema's version suffix, e.g. ``registry_v2``), with
``expected.json`` holding the query rows and both models' predictions
as exact float hex.  A directory written by an older schema is never
overwritten by a newer build, so each one pins that later builds still
read it bit-identically (``tests/test_registry_golden.py``).

Usage::

    PYTHONPATH=src python tools/golden_registry.py            # write the fixture
    PYTHONPATH=src python tools/golden_registry.py --check    # exit 1 on drift
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core import FormatSelector, SpMVDataset
from repro.core.predictor import PerformancePredictor
from repro.features import ALL_FEATURES
from repro.serve import ARTIFACT_SCHEMA, ModelRegistry

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

FORMATS = ("coo", "csr", "ell", "hyb")
SEED = 16
N_TRAIN = 80
N_QUERY = 12


def fixture_dir(schema: str = ARTIFACT_SCHEMA) -> Path:
    return GOLDEN / f"registry_{schema.rsplit('/', 1)[1]}"


def dataset(n: int, seed: int) -> SpMVDataset:
    """Seeded synthetic dataset whose best format depends on the features."""
    rng = np.random.default_rng(seed)
    X = np.exp(rng.normal(3.0, 2.0, size=(n, len(ALL_FEATURES))))
    score = np.log(X[:, :len(FORMATS)]) + rng.normal(0.0, 0.3, (n, len(FORMATS)))
    times = 1e-5 * np.exp(score - score.min(axis=1, keepdims=True))
    return SpMVDataset([f"m{i}" for i in range(n)], X, times, FORMATS,
                       "synthetic", "single")


def train_models():
    train = dataset(N_TRAIN, SEED)
    selector = FormatSelector("xgboost", feature_set="set12",
                              n_estimators=6).fit(train)
    predictor = PerformancePredictor("decision_tree",
                                     feature_set="set12").fit(train)
    return train, selector, predictor


def predictions(selector, predictor, query: SpMVDataset) -> Dict:
    return {
        "selector": [int(i) for i in selector.predict(query)],
        "selector_configs": [c.key for c in selector.predict_configs(query)],
        "selector_proba": [
            [float(v).hex() for v in row] for row in
            selector.estimator.predict_proba(query.X(selector.feature_set))],
        "predictor": [[float(v).hex() for v in row]
                      for row in predictor.predict(query)],
    }


def write(out: Path) -> None:
    train, selector, predictor = train_models()
    registry = ModelRegistry(out)
    registry.save(selector, "selector", dataset=train, promote=True)
    registry.save(predictor, "predictor", dataset=train)
    query = dataset(N_QUERY, SEED + 1)
    expected = {
        "schema": ARTIFACT_SCHEMA,
        "query": [[float(v).hex() for v in row] for row in query.feature_array],
        "formats": list(FORMATS),
        **predictions(selector, predictor, query),
    }
    (out / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


def check(out: Path) -> bool:
    """Load the fixture with this build; True when predictions match."""
    expected = json.loads((out / "expected.json").read_text())
    X = np.array([[float.fromhex(v) for v in row] for row in expected["query"]])
    query = SpMVDataset([f"q{i}" for i in range(len(X))], X,
                        np.ones((len(X), len(expected["formats"]))),
                        tuple(expected["formats"]), "synthetic", "single")
    registry = ModelRegistry(out)
    selector, _ = registry.load("selector")
    predictor, _ = registry.load("predictor")
    got = predictions(selector, predictor, query)
    return all(got[k] == expected[k] for k in got)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare every committed fixture instead of writing")
    args = ap.parse_args(argv)
    if args.check:
        ok = True
        for out in sorted(GOLDEN.glob("registry_v*")):
            good = check(out)
            print(f"{out.name}: {'ok' if good else 'DRIFT'}")
            ok &= good
        return 0 if ok else 1
    out = fixture_dir()
    if out.exists():
        print(f"{out} exists; remove it first to rewrite it", file=sys.stderr)
        return 1
    write(out)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
