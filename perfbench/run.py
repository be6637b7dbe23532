"""Layered benchmark of the format-selection system.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload decide --seed 3 --seconds 25 --trace 0

The workload is set up, then fixed rounds of work run until the run
has taken ``--seconds``; more set-ups (each followed by timed refits of
a serving selector) are timed at even intervals in between and count
toward ``--seconds`` (``setup_s`` is the median of all).  Rounds must
reproduce their decision digest.  With ``--trace 0`` the last stdout
line is a JSON object with every end-to-end metric of
``BENCHMARK.json``; with
``--trace 1`` rounds alternate between untraced and traced, and the
metrics are its per-layer numbers of the traced rounds.  Exits 1 on a
failed correctness check and 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

# One thread per process: the benchmark is sized for a 2-core machine
# and measures the Python layers, not BLAS threading.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent


class Meter:
    """Times the measured parts of a round (a round may enter it more
    than once); with a tracer, also opens a root span per part and turns
    tracing on for exactly those parts."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self) -> "Meter":
        if self.tracer is not None:
            self._root = self.tracer.begin("bench.round")
            self.tracer.active = True
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds += time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.active = False
            self.tracer.end(self._root)


def typical_per_op(rounds):
    """Each op's median time over the run's rounds (and their copies).

    Every round repeats the same ops in the same order, so op ``i`` of
    one round is the same work as op ``i`` of the next; a round's
    ``copies`` are extra timed passes over its first ops.  On a small
    shared host one op's time spreads widely from call to call (a fixed
    37 ms labeling read 22-60 ms), while its median over ten seconds
    stays within about 5%.  The fastest of ~10 samples reads that wide
    lower tail and moved 25-30% from run to run; the median of as many
    moves 5-7%.
    """
    samples = [[] for _ in rounds[0].latencies]
    for r in rounds:
        for times in (r.latencies, *r.copies):
            for op, t in zip(samples, times):
                op.append(t)
    return [statistics.median(op) for op in samples]


def _percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(setups, fits, rounds) -> dict:
    # Quality repeats exactly per fold; sum one round of each fold.
    per_fold = {r.fold: r.quality for r in reversed(rounds)}
    q = {k: sum(f[k] for f in per_fold.values()) for k in rounds[0].quality}
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    per_op = typical_per_op(rounds)
    # A fit inside rounds (campaign) differs by corpus: each corpus's
    # median, averaged over corpora.  Set-up fits all see the same data:
    # their median.
    fold_fit = {}
    for r in rounds:
        if not math.isnan(r.train_s):
            fold_fit.setdefault(r.fold, []).append(r.train_s)
    in_round = bool(fold_fit)
    train_s = (statistics.fmean(statistics.median(v) for v in fold_fit.values())
               if in_round else statistics.median(fits))
    cost_s = sum(per_op) + (train_s if in_round else 0.0)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(per_op) / sum(per_op),
        "latency_ms_p50": 1e3 * statistics.median(per_op),
        "latency_ms_p90": 1e3 * _percentile(per_op, 90),
        "latency_ms_p99": 1e3 * _percentile(per_op, 99),
        "train_s": train_s,
        "select_accuracy": q["hits"] / q["w"],
        "select_slowdown_geomean": math.exp(q["log_slowdown"] / q["w"]),
        # cost_s is one round's, which decides one fold's rows
        "breakeven_spmvs": (cost_s * len(per_fold) / q["n"]) / (q["saved_s"] / q["w"]),
        "ok_share": 1.0 - failed / attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no package sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)

    setups, fits = [], []

    def timed_setup():
        gc.collect()
        t0 = time.perf_counter()
        made = wl.setup(args.seed, scratch)
        setups.append(time.perf_counter() - t0)
        if "fit_s" in made:
            fits.append(made["fit_s"])
            fits.extend(workloads.refit(made) for _ in range(workloads.REFITS))
        return made

    start = time.perf_counter()
    state = timed_setup()
    # Long-lived set-up objects leave the collector's generations, so
    # collections during rounds only walk what the round allocated.
    gc.collect()
    gc.freeze()
    tracer = tracing.Tracer().install() if args.trace else None
    plain, traced, traced_wall, last_s = [], [], 0.0, 0.0
    try:
        # Set-ups count toward --seconds, and no round starts that would
        # end past it, so a run takes about that long.
        while True:
            elapsed = time.perf_counter() - start
            if not (len(plain) < wl.folds or (tracer is not None and not traced)
                    or len(setups) < wl.setup_repeats
                    or elapsed + last_s < args.seconds):
                break
            if (len(setups) < wl.setup_repeats
                    and elapsed >= len(setups) * args.seconds / wl.setup_repeats):
                # The repeat set-ups are spread over the run, so their
                # median does not hang on one phase of the host.
                timed_setup()
                continue
            t0 = time.perf_counter()
            gc.collect()
            use = tracer if tracer is not None and len(traced) < len(plain) else None
            meter = Meter(use)
            (traced if use is not None else plain).append(wl.round(state, meter))
            if use is not None:
                traced_wall += meter.seconds
            last_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    rounds = plain + traced

    errors = [e for r in rounds for e in r.errors]
    digests = {}
    for r in rounds:
        if digests.setdefault(r.fold, r.digest) != r.digest:
            errors.append(f"rounds of fold {r.fold} disagree on the decision digest")
    combined = workloads.digest(*(digests[k] for k in sorted(digests)))
    print(f"decision_digest {wl.name} seed={args.seed} {combined}")

    if tracer is not None:
        try:
            metrics = tracing.layer_metrics(tracer, traced_wall, sum(r.ops for r in traced))
        except AssertionError as exc:
            errors.append(str(exc))
            metrics = {}
        metrics["campaign.dropped"] = traced[0].dropped
        metrics["trace.overhead_share"] = (
            sum(typical_per_op(traced)) / sum(typical_per_op(plain)) - 1.0)
        tracer.write(scratch / f"trace-{wl.name}.npz")
    else:
        metrics = end_to_end(setups, fits, rounds)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if tracer is not None else "end_to_end"]}
    if set(metrics) != set(units):
        errors.append(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                      "BENCHMARK.json")

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": float(v), "unit": units.get(k, "")}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
