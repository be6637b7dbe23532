"""Command-line interface: ``repro-spmv``.

Subcommands cover the full workflow a downstream user needs:

* ``corpus``   — sample the synthetic SuiteSparse-shaped corpus and write
  Matrix Market files plus a manifest.
* ``features`` — print the paper's 17 features for ``.mtx`` files.
* ``label``    — run the measurement campaign on a simulated device and
  save an ``SpMVDataset`` (``.npz``).
* ``campaign`` — the same measurement campaign with the full engine
  surfaced: parallel workers, per-matrix resume shards, a failure log
  and live progress output.
* ``train``    — fit a format selector on a labeled dataset and save it.
* ``predict``  — load a trained selector and pick formats for ``.mtx``
  files.
* ``table``    — regenerate one of the paper's tables/figures at the
  configured scale.
* ``registry`` — train models into the versioned, checksummed model
  registry (``save`` / ``list`` / ``promote``).
* ``serve``    — load registry models and serve format decisions:
  one-shot over ``.mtx`` files, a JSON-lines stdin/stdout daemon, or a
  concurrent socket server (``--listen HOST:PORT``) micro-batching
  requests across client connections.  ``--adaptive`` attaches the
  online-learning loop: feedback-driven retraining, shadow evaluation
  and regret-gated auto-promotion (knobs: ``--adapt-*``).
* ``adapt``    — inspect and drive the adaptive-promotion machinery
  offline: ``status``, the ``history`` audit trail, manual ``promote``
  and ``rollback`` of the production alias.
* ``obs``      — pretty-print (and ``--check`` validate) observability
  snapshot files written by ``--metrics-out`` or a daemon's
  ``snapshot_every`` flight recorder.

Two root-level flags (they go *before* the subcommand) switch on the
:mod:`repro.obs` telemetry spine for any command: ``--trace`` prints
the span/metric tables to stderr at exit, and ``--metrics-out PATH``
writes the full JSON snapshot for ``repro-spmv obs`` to read back.

Every command is importable (``from repro.cli import main``) and returns
a process exit code, so the test suite drives it in-process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spmv",
        description="ML-based SpMV format selection & performance modeling "
        "(reproduction of Nisa et al., 2018)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="enable repro.obs tracing and print the span/metric tables "
        "to stderr when the command finishes",
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=None, metavar="PATH",
        help="enable repro.obs and write the JSON observability snapshot "
        "to PATH when the command finishes (read it back with "
        "'repro-spmv obs')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from .gpu import DEVICES

    device_choices = sorted(DEVICES)

    p = sub.add_parser("corpus", help="generate the synthetic corpus as .mtx files")
    p.add_argument("--scale", type=float, default=0.01, help="corpus fraction of ~2300")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-nnz", type=int, default=1_000_000)
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("features", help="print the 17 features of .mtx files")
    p.add_argument("files", nargs="+", type=Path)

    p = sub.add_parser("label", help="run the simulated measurement campaign")
    p.add_argument("--device", default="k40c", choices=device_choices)
    p.add_argument("--precision", default="single", choices=("single", "double"))
    p.add_argument("--scale", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-nnz", type=int, default=1_000_000)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--workers", type=int, default=None,
                   help="campaign worker processes (default: REPRO_WORKERS or 1)")
    p.add_argument("--out", type=Path, required=True, help="output .npz path")

    p = sub.add_parser(
        "campaign",
        help="run a parallel, resumable measurement campaign",
        description="Run the labeling measurement campaign with the full "
        "engine surfaced: a process pool fans the per-matrix loop out, "
        "per-matrix result shards make interrupted runs resumable, "
        "failures are recorded (and logged) instead of aborting, and "
        "progress (counts, ETA) streams to stdout.  Repeat --device to "
        "label the same corpus across a device fleet; each device gets "
        "its own dataset (the device key is inserted before the output "
        "suffix) and its own resume shards.",
    )
    p.add_argument("--device", dest="devices", action="append", default=None,
                   choices=device_choices, metavar="DEVICE",
                   help="simulated device (repeatable for a fleet sweep; "
                   f"default: k40c; choices: {', '.join(device_choices)})")
    p.add_argument("--precision", default="single", choices=("single", "double"))
    p.add_argument("--scale", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-nnz", type=int, default=1_000_000)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: REPRO_WORKERS or 1)")
    p.add_argument("--shard-dir", type=Path, default=None,
                   help="resume-shard directory (default: <out>.shards)")
    p.add_argument("--no-resume", action="store_true",
                   help="disable shard caching entirely")
    p.add_argument("--failures", type=Path, default=None,
                   help="write a name,reason CSV of dropped matrices")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-matrix labeling timeout in seconds")
    p.add_argument("--tuned", action="store_true",
                   help="label over the joint format+parameter grid "
                   "(repro.tuning.tuned_space()) instead of the six "
                   "default formats")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke preset: clamp the corpus to scale<=0.01 "
                   "and reps<=5")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p.add_argument("--out", type=Path, required=True, help="output .npz path")

    p = sub.add_parser("train", help="train a format selector on a dataset")
    p.add_argument("--dataset", type=Path, required=True, help=".npz from 'label'")
    p.add_argument("--model", default="xgboost",
                   choices=("decision_tree", "svm", "mlp", "mlp_ensemble", "xgboost"))
    p.add_argument("--feature-set", default="set12",
                   choices=("set1", "set12", "set123", "imp"))
    p.add_argument("--keep-coo-best", action="store_true",
                   help="skip the paper's Sec. V-A COO-exclusion rule")
    p.add_argument("--out", type=Path, required=True,
                   help="output selector artifact (.npz) path")

    p = sub.add_parser("predict", help="pick the best format for .mtx files")
    p.add_argument("--model", type=Path, required=True,
                   help="selector artifact from 'train'")
    p.add_argument("files", nargs="+", type=Path)

    p = sub.add_parser("table", help="regenerate a paper table/figure")
    p.add_argument("name", choices=("table1", "fig3", "table5", "table8",
                                    "table10", "fig6", "table14", "importance"))

    p = sub.add_parser(
        "registry",
        help="manage the versioned model registry",
        description="Save trained selection models as versioned, "
        "checksummed pure-numpy artifacts; list versions; promote one "
        "to production.",
    )
    rsub = p.add_subparsers(dest="registry_command", required=True)

    rp = rsub.add_parser("save", help="train a model and save it as a new version")
    rp.add_argument("--registry", type=Path, required=True, help="registry root dir")
    rp.add_argument("--name", required=True, help="model name in the registry")
    rp.add_argument("--dataset", type=Path, required=True, help=".npz from 'label'")
    rp.add_argument("--kind", default="selector", choices=("selector", "predictor"))
    rp.add_argument("--model", default="xgboost",
                    choices=("decision_tree", "svm", "svr", "mlp",
                             "mlp_ensemble", "xgboost"))
    rp.add_argument("--feature-set", default="set12",
                    choices=("set1", "set12", "set123", "imp"))
    rp.add_argument("--mode", default="joint", choices=("joint", "per_format"),
                    help="predictor mode (ignored for selectors)")
    rp.add_argument("--keep-coo-best", action="store_true",
                    help="skip the paper's Sec. V-A COO-exclusion rule")
    rp.add_argument("--promote", action="store_true",
                    help="mark the new version as production")

    rp = rsub.add_parser("list", help="list registered model versions")
    rp.add_argument("--registry", type=Path, required=True)
    rp.add_argument("--name", default=None, help="restrict to one model name")

    rp = rsub.add_parser("promote", help="promote a version to production")
    rp.add_argument("--registry", type=Path, required=True)
    rp.add_argument("--name", required=True)
    rp.add_argument("--version", required=True)

    p = sub.add_parser(
        "serve",
        help="serve format decisions from registry models",
        description="Load models from the registry and serve format "
        "decisions: one-shot over .mtx files, a JSON-lines "
        "request/response daemon on stdin/stdout, or a concurrent "
        "socket server (--listen) micro-batching requests across "
        "client connections (ops: predict, feedback, stats, metrics, "
        "shutdown; with --adaptive also adaptive, promote, rollback).",
    )
    p.add_argument("--registry", type=Path, required=True, help="registry root dir")
    p.add_argument("--selector", default=None, help="selector name in the registry")
    p.add_argument("--predictor", default=None, help="predictor name in the registry")
    p.add_argument("--selector-version", default=None,
                   help="version id, 'latest' or 'production' (default: "
                   "production, falling back to latest)")
    p.add_argument("--predictor-version", default=None)
    p.add_argument("--mode", default=None, choices=("direct", "indirect", "hybrid"),
                   help="selection strategy (default: what the models allow)")
    p.add_argument("--tolerance", type=float, default=0.1,
                   help="hybrid-mode slack on the predicted best time")
    p.add_argument("--daemon", action="store_true",
                   help="serve JSON-lines requests from stdin")
    p.add_argument("--listen", default=None, metavar="HOST:PORT",
                   help="serve the JSON-lines protocol on a TCP socket to "
                   "many concurrent clients, micro-batching predict "
                   "requests across connections (PORT 0 picks a free port; "
                   "the bound address is printed on startup)")
    p.add_argument("--max-batch", type=int, default=32,
                   help="socket mode: flush a micro-batch at this size")
    p.add_argument("--batch-window-ms", type=float, default=2.0,
                   help="socket mode: flush an incomplete micro-batch this "
                   "many ms after its first request")
    p.add_argument("--queue-size", type=int, default=256,
                   help="socket mode: bounded request queue; full queue "
                   "returns busy responses (backpressure)")
    p.add_argument("--stats", action="store_true",
                   help="print the telemetry snapshot when done")
    p.add_argument("--snapshot-every", type=int, default=None, metavar="N",
                   help="daemon mode: emit a full observability snapshot to "
                   "the obs event sink every N served requests")
    p.add_argument("--adaptive", action="store_true",
                   help="attach the online-learning loop (requires "
                   "--selector): accumulate feedback into training rows, "
                   "retrain candidates, shadow-evaluate them against "
                   "production and auto-promote behind the regret gate; "
                   "adds daemon ops adaptive/promote/rollback")
    p.add_argument("--adapt-min-samples", type=int, default=50, metavar="N",
                   help="adaptive: paired feedback events required before "
                   "the promotion gate opens")
    p.add_argument("--adapt-min-improvement", type=float, default=0.05,
                   metavar="FRAC",
                   help="adaptive: required relative mean-regret improvement "
                   "of the candidate over production")
    p.add_argument("--adapt-cooldown", type=float, default=0.0, metavar="SEC",
                   help="adaptive: minimum seconds between promotions")
    p.add_argument("--adapt-train-every", type=int, default=64, metavar="N",
                   help="adaptive: train a fresh candidate every N new "
                   "experience rows")
    p.add_argument("files", nargs="*", type=Path, help=".mtx files (one-shot mode)")

    p = sub.add_parser(
        "adapt",
        help="inspect and drive adaptive promotions offline",
        description="Operate the adaptive-promotion machinery against a "
        "registry on disk: show the production alias and version stack "
        "(status), print the PROMOTIONS.jsonl audit trail (history), "
        "move the alias with an audited reason (promote), or revert it "
        "to the previous version from the trail (rollback).  A live "
        "daemon exposes the same operations as adaptive/promote/"
        "rollback protocol ops.",
    )
    asub = p.add_subparsers(dest="adapt_command", required=True)

    ap = asub.add_parser("status", help="production alias + version stack")
    ap.add_argument("--registry", type=Path, required=True)
    ap.add_argument("--name", required=True)

    ap = asub.add_parser("history", help="print the promotion audit trail")
    ap.add_argument("--registry", type=Path, required=True)
    ap.add_argument("--name", required=True)
    ap.add_argument("--json", action="store_true", dest="as_json",
                    help="emit raw JSON-lines instead of a table")

    ap = asub.add_parser("promote", help="promote a version with an audit reason")
    ap.add_argument("--registry", type=Path, required=True)
    ap.add_argument("--name", required=True)
    ap.add_argument("--version", required=True)
    ap.add_argument("--reason", default="manual")

    ap = asub.add_parser("rollback",
                         help="revert production to the previous version")
    ap.add_argument("--registry", type=Path, required=True)
    ap.add_argument("--name", required=True)
    ap.add_argument("--reason", default="manual")

    p = sub.add_parser(
        "obs",
        help="inspect observability snapshot files",
        description="Pretty-print snapshots written by --metrics-out (a "
        "single JSON object) or by a daemon's snapshot_every flight "
        "recorder (JSON-lines; the last snapshot event is used).  With "
        "--check, validate the structural invariants instead and exit "
        "non-zero on any violation.",
    )
    p.add_argument("files", nargs="+", type=Path, help="snapshot .json/.jsonl files")
    p.add_argument("--check", action="store_true",
                   help="validate invariants (parent span time >= sum of "
                   "children, histogram counts consistent) and report")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="re-emit the parsed snapshot as canonical JSON "
                   "instead of tables")
    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_corpus(args) -> int:
    from .matrices import SyntheticCorpus, write_matrix_market

    corpus = SyntheticCorpus(scale=args.scale, seed=args.seed, max_nnz=args.max_nnz)
    args.out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for entry in corpus:
        matrix = entry.build()
        path = args.out / f"{entry.name}.mtx"
        write_matrix_market(
            matrix, path, comment=f"family={entry.family} seed={entry.seed}"
        )
        manifest.append(f"{entry.name},{entry.family},{matrix.n_rows},"
                        f"{matrix.n_cols},{matrix.nnz}")
    (args.out / "manifest.csv").write_text(
        "name,family,rows,cols,nnz\n" + "\n".join(manifest) + "\n"
    )
    print(f"wrote {len(corpus)} matrices to {args.out}")
    return 0


def _cmd_features(args) -> int:
    from .features import ALL_FEATURES, extract_features
    from .matrices import read_matrix_market

    header = "matrix," + ",".join(ALL_FEATURES)
    print(header)
    for path in args.files:
        feats = extract_features(read_matrix_market(path))
        print(f"{path.name}," + ",".join(f"{feats[f]:.6g}" for f in ALL_FEATURES))
    return 0


def _cmd_label(args) -> int:
    from .core import build_dataset
    from .gpu import DEVICES
    from .matrices import SyntheticCorpus

    corpus = SyntheticCorpus(scale=args.scale, seed=args.seed, max_nnz=args.max_nnz)
    ds = build_dataset(
        corpus,
        DEVICES[args.device],
        args.precision,
        reps=args.reps,
        seed=args.seed,
        workers=args.workers,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    ds.save(args.out)
    from collections import Counter

    dist = Counter(ds.label_names.tolist())
    print(f"labeled {len(ds)} matrices on {ds.device} ({ds.precision})")
    print("best-format distribution: "
          + ", ".join(f"{k}={v}" for k, v in dist.most_common()))
    print(f"saved {args.out}")
    return 0


def _per_device_path(path: Optional[Path], device: str, fleet: bool) -> Optional[Path]:
    """Insert the device key before ``path``'s suffix for fleet sweeps.

    Single-device runs keep the user's path untouched so existing scripts
    (and the shard directories they already populated) stay valid.
    """
    if path is None or not fleet:
        return path
    return path.with_name(f"{path.stem}.{device}{path.suffix}")


def _cmd_campaign(args) -> int:
    from collections import Counter

    from .bench.campaign import run_campaign
    from .gpu import DEVICES
    from .matrices import SyntheticCorpus

    devices = list(dict.fromkeys(args.devices or ["k40c"]))
    fleet = len(devices) > 1
    scale, reps = args.scale, args.reps
    if getattr(args, "quick", False):
        scale, reps = min(scale, 0.01), min(reps, 5)
    corpus = SyntheticCorpus(scale=scale, seed=args.seed, max_nnz=args.max_nnz)

    def _progress(ev) -> None:
        if args.quiet:
            return
        width = max(1, ev.total // 20)
        if ev.done % width and ev.done != ev.total:
            return
        cached = f" cached={ev.cached}" if ev.cached else ""
        print(
            f"[{ev.done}/{ev.total}] ok={ev.ok} failed={ev.failed}{cached} "
            f"elapsed={ev.elapsed_s:.1f}s eta={ev.eta_s:.1f}s ({ev.name})",
            flush=True,
        )

    summaries = []
    for device in devices:
        out = _per_device_path(args.out, device, fleet)
        shard_dir = None
        if not args.no_resume:
            shard_dir = (_per_device_path(args.shard_dir, device, fleet)
                         or out.with_suffix(out.suffix + ".shards"))
        if fleet and not args.quiet:
            print(f"=== device {device} -> {out} ===", flush=True)
        result = run_campaign(
            corpus,
            DEVICES[device],
            args.precision,
            tuned=getattr(args, "tuned", False),
            reps=reps,
            seed=args.seed,
            workers=args.workers,
            shard_dir=shard_dir,
            progress=_progress,
            timeout_s=args.timeout,
        )
        failures_path = _per_device_path(args.failures, device, fleet)
        if failures_path is not None:
            failures_path.parent.mkdir(parents=True, exist_ok=True)
            result.write_failure_log(failures_path)
            print(f"failure log: {failures_path} ({len(result.failures)} matrices)")
        elif result.failures:
            for name, reason in result.failures.items():
                print(f"dropped {name}: {reason}")
        try:
            ds = result.to_dataset()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        out.parent.mkdir(parents=True, exist_ok=True)
        ds.save(out)
        dist = Counter(ds.label_names.tolist())
        print(f"labeled {len(ds)}/{len(corpus)} matrices on {ds.device} "
              f"({ds.precision}, reps={ds.reps}, {len(result.failures)} dropped)")
        print("best-format distribution: "
              + ", ".join(f"{k}={v}" for k, v in dist.most_common()))
        print(f"saved {out}")
        summaries.append((device, out, len(ds), dist.most_common(1)[0][0] if dist else "-"))
    if fleet:
        print("fleet summary:")
        for device, out, n, top in summaries:
            print(f"  {device}: {n} matrices, top format {top}, {out}")
    return 0


def _cmd_train(args) -> int:
    from .core import FormatSelector, SpMVDataset

    ds = SpMVDataset.load(args.dataset)
    if not args.keep_coo_best:
        ds = ds.drop_coo_best()
    selector = FormatSelector(args.model, feature_set=args.feature_set)
    selector.fit(ds)
    acc = selector.score(ds)
    selector.save(args.out)
    print(f"trained {args.model} on {len(ds)} matrices "
          f"(training accuracy {acc:.1%}); saved {args.out}")
    return 0


def _cmd_predict(args) -> int:
    from .core import FormatSelector
    from .features import FEATURE_SETS, extract_features, feature_vector
    from .matrices import read_matrix_market

    selector = FormatSelector.load(args.model)
    names = (
        FEATURE_SETS[selector.feature_set]
        if isinstance(selector.feature_set, str)
        else selector.feature_set
    )
    for path in args.files:
        matrix = read_matrix_market(path)
        fv = feature_vector(extract_features(matrix), names)
        fmt = selector.predict_formats(fv[None, :])[0]
        print(f"{path.name}: {fmt}")
    return 0


def _cmd_table(args) -> int:
    from .bench import (
        classification_table,
        corpus_statistics,
        feature_importance,
        format_gflops_sweep,
        imp_features_table,
        indirect_vs_direct,
        regression_rme_by_feature_set,
        render_series,
        render_table,
    )

    if args.name == "table1":
        rows = corpus_statistics()
        print(render_table(
            ["range", "count", "rows", "cols", "dens%", "mu", "sigma"],
            [(r["range"], r["count"], f"{r['avg_rows']:.0f}", f"{r['avg_cols']:.0f}",
              f"{r['avg_density_pct']:.3f}", f"{r['avg_nnz_mu']:.1f}",
              f"{r['avg_nnz_sigma']:.1f}") for r in rows],
        ))
    elif args.name == "fig3":
        sweep = format_gflops_sweep(10)
        for name, row in sweep.items():
            print(name, {k: round(v, 1) for k, v in row.items()})
    elif args.name in ("table5", "table8"):
        formats = ("ell", "csr", "hyb") if args.name == "table5" else None
        kwargs = {"formats": formats} if formats else {}
        result = classification_table(feature_set="set12", cv=3, **kwargs)
        print(render_table(
            ["machine"] + sorted(next(iter(result.values()))),
            [[f"{d}/{p}"] + [f"{accs[m]:.0%}" for m in sorted(accs)]
             for (d, p), accs in result.items()],
        ))
    elif args.name == "table10":
        result = imp_features_table(cv=3)
        print(render_table(
            ["machine"] + sorted(next(iter(result.values()))),
            [[f"{d}/{p}"] + [f"{accs[m]:.0%}" for m in sorted(accs)]
             for (d, p), accs in result.items()],
        ))
    elif args.name == "fig6":
        result = regression_rme_by_feature_set()
        for fs, row in result.items():
            print(f"{fs}: MLP={row['mlp']:.3f} ensemble={row['mlp_ensemble']:.3f}")
    elif args.name == "table14":
        result = indirect_vs_direct()
        for key, row in result.items():
            print(key, {k: f"{v:.0%}" for k, v in row.items()})
    elif args.name == "importance":
        ranking = feature_importance()
        print(render_series("XGBoost F-scores", dict(ranking)))
    return 0


def _cmd_registry(args) -> int:
    from .serve import ModelRegistry, RegistryError

    registry = ModelRegistry(args.registry)
    try:
        if args.registry_command == "save":
            from .core import SpMVDataset

            ds = SpMVDataset.load(args.dataset)
            if not args.keep_coo_best:
                ds = ds.drop_coo_best()
            if args.kind == "selector":
                from .core import FormatSelector

                model = FormatSelector(args.model, feature_set=args.feature_set)
                model.fit(ds)
                quality = f"training accuracy {model.score(ds):.1%}"
            else:
                from .core.predictor import PerformancePredictor

                model = PerformancePredictor(
                    args.model, feature_set=args.feature_set, mode=args.mode
                )
                model.fit(ds)
                quality = f"training RME {model.rme(ds):.3f}"
            record = registry.save(
                model, args.name, dataset=ds, promote=args.promote
            )
            tag = " [production]" if args.promote else ""
            print(f"trained {args.kind} '{args.model}' on {len(ds)} matrices "
                  f"({quality})")
            print(f"saved {record.name}:{record.version}{tag} under {args.registry}")
        elif args.registry_command == "list":
            records = registry.list(args.name)
            if not records:
                print("(registry is empty)")
                return 0
            for record in records:
                prod = registry.production_version(record.name)
                mark = " *" if record.version == prod else ""
                print(record.describe() + mark)
        else:  # promote
            record = registry.promote(args.name, args.version)
            print(f"promoted {record.name}:{record.version} to production")
    except (RegistryError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    from .serve import RegistryError, SelectionService, serve_jsonl

    if args.selector is None and args.predictor is None:
        print("error: need at least one of --selector/--predictor",
              file=sys.stderr)
        return 1
    if not args.daemon and args.listen is None and not args.files:
        print("error: give .mtx files for one-shot mode, --daemon, "
              "or --listen", file=sys.stderr)
        return 1
    if args.daemon and args.listen is not None:
        print("error: --daemon and --listen are mutually exclusive",
              file=sys.stderr)
        return 1
    kwargs = {"tolerance": args.tolerance}
    if args.mode is not None:
        kwargs["mode"] = args.mode
    try:
        service = SelectionService.from_registry(
            args.registry,
            selector=args.selector,
            predictor=args.predictor,
            selector_version=args.selector_version,
            predictor_version=args.predictor_version,
            **kwargs,
        )
    except (RegistryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.adaptive:
        from .serve import AdaptiveController, PromotionPolicy

        if args.selector is None:
            print("error: --adaptive requires --selector (candidates are "
                  "retrained selectors)", file=sys.stderr)
            return 1
        AdaptiveController(
            service,
            args.registry,
            args.selector,
            policy=PromotionPolicy(
                min_samples=args.adapt_min_samples,
                min_improvement=args.adapt_min_improvement,
                cooldown_s=args.adapt_cooldown,
            ),
            train_every=args.adapt_train_every,
        )

    if args.listen is not None:
        from .serve import SelectionServer

        host, _, port_text = args.listen.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            print(f"error: --listen wants HOST:PORT, got {args.listen!r}",
                  file=sys.stderr)
            return 1
        server = SelectionServer(
            service,
            host or "127.0.0.1",
            port,
            max_batch=args.max_batch,
            batch_window_s=args.batch_window_ms / 1e3,
            queue_size=args.queue_size,
        )
        server.start()
        bound_host, bound_port = server.address
        print(f"listening on {bound_host}:{bound_port}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            server.shutdown(drain=True)
        if args.stats:
            print(json.dumps(service.stats(), indent=2), file=sys.stderr)
        return 0

    if args.daemon:
        served = serve_jsonl(
            service, sys.stdin, sys.stdout,
            snapshot_every=args.snapshot_every,
        )
        if args.stats:
            print(json.dumps(service.stats(), indent=2), file=sys.stderr)
        return 0

    from .matrices import read_matrix_market

    decisions = service.predict_batch(
        [read_matrix_market(path) for path in args.files]
    )
    for path, decision in zip(args.files, decisions):
        extra = ""
        if decision.predicted_times is not None:
            t = decision.predicted_times[decision.chosen]
            extra = f" (predicted {1e6 * t:.1f} us)"
        print(f"{path.name}: {decision.chosen}{extra}")
    if args.stats:
        print(json.dumps(service.stats(), indent=2))
    return 0


def _cmd_adapt(args) -> int:
    from .serve import ModelRegistry, RegistryError

    registry = ModelRegistry(args.registry)
    try:
        if args.adapt_command == "status":
            versions = registry.versions(args.name)
            if not versions:
                print(f"error: unknown model {args.name!r} under "
                      f"{args.registry}", file=sys.stderr)
                return 1
            prod = registry.production_version(args.name)
            history = registry.promotion_history(args.name)
            print(f"model: {args.name}")
            print(f"production: {prod or '(none)'}")
            print(f"versions: {', '.join(versions)}")
            if history:
                last = history[-1]
                print(f"last move: {last.get('action')} -> "
                      f"{last.get('version')} at {last.get('ts')} "
                      f"({last.get('reason', '-')})")
        elif args.adapt_command == "history":
            history = registry.promotion_history(args.name)
            if not history:
                print("(no promotion history)")
                return 0
            if args.as_json:
                for entry in history:
                    print(json.dumps(entry, sort_keys=True))
            else:
                for entry in history:
                    stats = entry.get("stats") or {}
                    extra = ""
                    if stats:
                        extra = (f" [paired={stats.get('n_paired')} "
                                 f"improvement={stats.get('improvement', 0):+.1%}]")
                    print(f"{entry.get('ts')} {entry.get('action'):8s} "
                          f"{entry.get('previous') or '-'} -> "
                          f"{entry.get('version')} "
                          f"({entry.get('reason', '-')}){extra}")
        elif args.adapt_command == "promote":
            record = registry.promote(
                args.name, args.version, reason=args.reason
            )
            print(f"promoted {record.name}:{record.version} to production "
                  f"(reason: {args.reason})")
        else:  # rollback
            previous = registry.rollback_target(args.name)
            if previous is None:
                print(f"error: no previous production version of "
                      f"{args.name!r} to roll back to", file=sys.stderr)
                return 1
            record = registry.promote(
                args.name, previous, action="rollback", reason=args.reason
            )
            print(f"rolled back {record.name} to {record.version} "
                  f"(reason: {args.reason})")
    except (RegistryError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _load_snapshot(path: Path) -> dict:
    """Read one snapshot from a ``--metrics-out`` JSON file or a
    JSON-lines event stream (last snapshot-carrying event wins)."""
    from .obs.export import SNAPSHOT_SCHEMA

    text = path.read_text()
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        if doc.get("schema") == SNAPSHOT_SCHEMA:
            return doc
        payload = doc.get("payload")
        if isinstance(payload, dict) and payload.get("schema") == SNAPSHOT_SCHEMA:
            return payload
        raise ValueError(f"{path} is JSON but not an obs snapshot")
    # JSON-lines: scan for the newest embedded snapshot.
    found = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if not isinstance(event, dict):
            continue
        for candidate in (event, event.get("payload")):
            if (isinstance(candidate, dict)
                    and candidate.get("schema") == SNAPSHOT_SCHEMA):
                found = candidate
    if found is None:
        raise ValueError(f"no obs snapshot found in {path}")
    return found


def _cmd_obs(args) -> int:
    from .obs.export import check_snapshot, render_snapshot

    status = 0
    for path in args.files:
        try:
            snap = _load_snapshot(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        if len(args.files) > 1:
            print(f"== {path}")
        if args.check:
            problems = check_snapshot(snap)
            if problems:
                status = 1
                for problem in problems:
                    print(f"{path}: {problem}")
            else:
                print(f"{path}: ok")
        elif args.as_json:
            print(json.dumps(snap, indent=2, sort_keys=True))
        else:
            print(render_snapshot(snap))
    return status


_COMMANDS = {
    "corpus": _cmd_corpus,
    "features": _cmd_features,
    "label": _cmd_label,
    "campaign": _cmd_campaign,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "table": _cmd_table,
    "registry": _cmd_registry,
    "serve": _cmd_serve,
    "adapt": _cmd_adapt,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    observing = args.trace or args.metrics_out is not None
    if observing:
        from . import obs

        obs.enable()
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro-spmv serve ... | head`).
        # Detach stdout so the interpreter's shutdown flush doesn't raise.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        sys.stdout = open(os.devnull, "w")
        return 0
    finally:
        if observing:
            from . import obs
            from .obs.export import render_snapshot

            snap = obs.snapshot()
            if args.metrics_out is not None:
                args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
                args.metrics_out.write_text(
                    json.dumps(snap, indent=2, sort_keys=True) + "\n"
                )
            if args.trace:
                print(render_snapshot(snap), file=sys.stderr)
            obs.disable(reset=True)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
