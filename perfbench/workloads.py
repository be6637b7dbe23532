"""The four benchmark workloads: ``campaign``, ``decide``, ``daemon``, ``adapt``.

Each workload has a ``setup(seed, scratch)`` that builds every input
from the seed, and a ``round(state, meter)`` that does one fixed unit of
work on fresh program state, timing each op, inside ``meter``.  A
round's decisions depend only on the seed (and, for ``campaign``, on the
held-out fold), so rounds must repeat the same decision digest; timings
are the only thing that differ.  ``folds`` is the number of distinct
rounds and ``setup_repeats`` how often the run times the set-up.

Corpus *shapes* (family, nnz target and size of every matrix) are drawn
once from a fixed shape seed; the workload seed draws each matrix's
structure.  The serving workloads' selector is trained on a corpus of
its own fixed seed.  The cost of a round therefore depends on the code,
not on which seed the benchmark was given, while the matrices, labels,
traffic and decisions still change with the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro import analysis, tuning
from repro.bench import campaign
from repro.core.selector import FormatSelector
from repro.features import ALL_FEATURES, FEATURE_SETS
from repro.formats import CSRMatrix
from repro.gpu import KEPLER_K40C, SpMVExecutor
from repro.gpu.batch import ProfileBatch
from repro.matrices import CorpusEntry, SyntheticCorpus
from repro.serve import (
    AdaptiveController,
    ModelRegistry,
    PromotionPolicy,
    SelectionService,
    daemon,
)

_clock = time.perf_counter

#: Seed of the corpus shapes (see the module docstring).
SHAPE_SEED = 0
#: Labeling protocol of the paper: 50 repetitions over the tuned space.
REPS = 50
VOCAB = tuning.tuned_space()
CSR = VOCAB.index("csr")

#: ``campaign``: FOLDS corpora of ~310 SuiteSparse-shaped matrices up
#: to 20k nnz each, all drawn from the seed.  Round ``k`` labels corpus
#: ``k mod FOLDS`` and scores fold ``k mod FOLDS`` of it.  The fit's
#: cost depends on the labels: its booster grows one tree per class up
#: to the highest label, and one matrix in ~300 whose best configuration
#: is rare takes about a third of the corpora from 10 classes to 15 and
#: makes their fit 15-25% longer.  Averaged over FOLDS corpora, that
#: draw moves ``train_s`` less from seed to seed than one corpus's would.
CAMPAIGN_SHAPE = (0.25, 20_000)
FOLDS = 5
#: Selector training corpus of ``decide``/``daemon``/``adapt`` and the
#: request (or feedback pool) corpus beside it: ~150 matrices each.
#: The training corpus and its labels come from TRAIN_SEED, not from
#: the workload seed: every seed serves the same model (whose size sets
#: the cost of a fit and of a decision-cache miss, see above), and the
#: seed draws the traffic.
TRAIN_SHAPE = (0.12, 20_000)
REQUEST_SHAPE = (0.12, 20_000)
TRAIN_SEED = 1_000_003
#: ``decide``: every REPEAT_EVERY-th request repeats an earlier matrix.
REPEAT_EVERY = 4
#: ``daemon`` predicts per round (each followed by a feedback) and the
#: Zipf exponent of pool-row popularity.
DAEMON_PREDICTS = 1024
ZIPF_S = 1.0
#: An ``adapt`` round opens with ADAPT_LEAD predicts without feedback,
#: twice as many lines as a ``daemon`` round, then runs one
#: ``train_every`` cycle of predict + feedback pairs closed by a manual
#: ``promote`` line: every round trains one candidate and promotes it
#: whatever the seed.  (In longer cycles the regret gate and the drift
#: alarms, which depend on the seed, decide how many candidates a round
#: trains.)  About 3% of the lines are decision-cache misses, and the
#: hit right after each miss runs ~30% slow (the miss's model walk
#: evicts the hit path's data), another 3%.  So p90 reads plain hits
#: and p99 the misses; with a lead half as long both groups were 6%, and
#: p90 fell inside the after-miss group and moved with its share.
#: The one training line is under 0.1% of the lines: it moves
#: ``ops_per_s`` and ``breakeven_spmvs``, not ``latency_ms_p99``.
ADAPT_LEAD = 4 * DAEMON_PREDICTS
#: A round trains a candidate, so an ``adapt`` run holds only ~10
#: rounds: few samples of each line for its median time.  The lead is
#: served LEAD_COPIES times a round, each on a fresh service, and every
#: copy's times are samples of its lines.
LEAD_COPIES = 2
#: ``adapt`` runs at the ``repro-spmv serve --adaptive`` defaults.
ADAPT_POLICY = PromotionPolicy(min_samples=50, min_improvement=0.05, cooldown_s=0.0)
ADAPT_TRAIN_EVERY = 64
ADAPT_PREDICTS = ADAPT_TRAIN_EVERY


# -- inputs -------------------------------------------------------------------


def _derived(seed: int, tag: str) -> int:
    h = hashlib.blake2b(f"{seed}/{tag}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") % (2**31 - 1)


def shaped_corpus(shape, seed: int, prefix: str) -> List[CorpusEntry]:
    """Entries of the fixed-shape corpus with structures drawn from ``seed``."""
    scale, max_nnz = shape
    out = []
    for e in SyntheticCorpus(scale, seed=SHAPE_SEED, max_nnz=max_nnz):
        s = _derived(seed, f"{prefix}/{e.name}")
        out.append(dataclasses.replace(
            e, name=f"{prefix}_{e.name}", seed=s, params={**e.params, "seed": s}))
    return out


def label(entries: Sequence[CorpusEntry], seed: int, progress=None):
    return campaign.run_campaign(
        entries, KEPLER_K40C, tuned=True, reps=REPS, seed=seed, workers=1,
        progress=progress,
    )


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def quality(times: np.ndarray, chosen: Sequence[int], rows: Sequence[int]) -> Dict[str, float]:
    """Quality of the chosen columns against measured ``times`` rows.

    Decision ``i`` picked column ``chosen[i]`` for matrix ``rows[i]``
    (a row of ``times``).  Each distinct matrix weighs the same however
    often it was requested, so a popular matrix cannot swing the
    figures.  Returns weighted sums: oracle hits, log slowdown and SpMV
    seconds saved versus always-CSR, plus the weight total ``w`` and the
    decision count ``n``.
    """
    rows = np.asarray(rows)
    chosen = np.asarray(chosen)
    _, inverse, counts = np.unique(rows, return_inverse=True, return_counts=True)
    w = 1.0 / counts[inverse]
    t = times[rows]
    picked = t[np.arange(len(rows)), chosen]
    return {
        "n": len(rows),
        "w": float(w.sum()),
        "hits": float(w @ (chosen == t.argmin(axis=1))),
        "log_slowdown": float(w @ np.log(picked / t.min(axis=1))),
        "saved_s": float(w @ (t[:, CSR] - picked)),
    }


@dataclasses.dataclass
class Round:
    """One round's outcome; every field but the timings repeats exactly."""

    ops: int
    failed: int
    latencies: List[float]         #: seconds per op
    quality: Dict[str, float]
    digest: str
    errors: List[str]
    train_s: float = math.nan      #: selector fit inside the round
    dropped: int = 0               #: campaign drop-rule drops
    fold: int = 0                  #: held-out fold (``campaign``)
    #: extra timed passes over the first ops (``adapt``'s lead copies)
    copies: List[List[float]] = dataclasses.field(default_factory=list)


class _Sink:
    """Write target of :func:`serve_jsonl` that keeps the response lines."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def write(self, text: str) -> None:
        self.lines.append(text)

    def flush(self) -> None:
        pass


# -- campaign ------------------------------------------------------------------


class Campaign:
    """Offline path: label a corpus, fit the selector, score held-out rows.

    Round ``k`` labels corpus ``k mod FOLDS`` and holds out fold
    ``k mod FOLDS`` of it, so a run's first FOLDS rounds score a fifth
    of every corpus.  Matrix ``i`` has the same shape in every corpus,
    so op ``i`` is like work in every round.
    """

    name = "campaign"
    folds = FOLDS
    setup_repeats = 15  # a cheap set-up: more repeats for a steady median

    def setup(self, seed: int, scratch: Path):
        corpora = [shaped_corpus(CAMPAIGN_SHAPE, seed, f"c{k}") for k in range(FOLDS)]
        label(corpora[0][:8], seed)  # warm every code path before timing
        return {"seed": seed, "corpora": corpora, "rounds": 0}

    def round(self, state, meter) -> Round:
        seed = state["seed"]
        fold = state["rounds"] % FOLDS
        entries = state["corpora"][fold]
        state["rounds"] += 1
        stamps: List[float] = []
        with meter:
            stamps.append(_clock())
            result = label(entries, seed, lambda ev: stamps.append(_clock()))
            t_label = _clock()
            ds = result.to_dataset()
            held = np.random.default_rng(seed).permutation(len(ds)) % FOLDS == fold
            train, test = ds.subset(~held), ds.subset(held)
            t_fit = _clock()
            selector = FormatSelector("xgboost").fit(train)
            train_s = _clock() - t_fit
            picks = selector.predict(test)
        dropped = sum(1 for r in result.results
                      if not r.ok and r.failure.startswith("incomplete:"))
        failed = sum(1 for r in result.results if not r.ok) - dropped
        errors = []
        if not np.all(np.isfinite(ds.times)) or not np.all(ds.times > 0):
            errors.append("campaign: a labeled time is not finite and positive")
        q = quality(test.times, picks, np.arange(len(test)))
        return Round(
            ops=len(entries),
            failed=failed,
            latencies=list(np.diff(stamps)),
            quality=q,
            digest=digest(ds.names, ds.times.tobytes(), picks.tobytes()),
            errors=errors,
            train_s=train_s,
            dropped=dropped,
            fold=fold,
        )


# -- serving set-up shared by decide / daemon / adapt -----------------------------


def _trained(seed: int) -> Dict:
    """Label the training corpus (TRAIN_SEED) and the request corpus
    (the workload seed), and fit the default selector on the first."""
    train_entries = shaped_corpus(TRAIN_SHAPE, TRAIN_SEED, "t")
    request_entries = shaped_corpus(REQUEST_SHAPE, seed, "q")
    train = label(train_entries, TRAIN_SEED).to_dataset()
    pool = label(request_entries, seed).to_dataset()
    t0 = _clock()
    selector = FormatSelector("xgboost").fit(train)
    fit_s = _clock() - t0
    entries = {e.name: e for e in request_entries}
    return {"seed": seed, "selector": selector, "train": train, "pool": pool,
            "entries": entries, "fit_s": fit_s}


#: Timed refits of the selector after each serving set-up.  One fit's
#: time varies by up to 1.5x within a process on a shared host;
#: ``train_s`` is the median of all fits of a run, four per set-up.
REFITS = 3


def refit(state) -> float:
    """Seconds for one more fit of the set-up's selector on its data."""
    t0 = _clock()
    FormatSelector("xgboost").fit(state["train"])
    return _clock() - t0


# -- decide ----------------------------------------------------------------------


class Decide:
    """Closed loop, one client: hybrid decisions on raw matrices."""

    name = "decide"
    folds = 1
    setup_repeats = 3

    def setup(self, seed: int, scratch: Path):
        state = _trained(seed)
        pool = state["pool"]
        matrices = [state["entries"][n].build() for n in pool.names]
        rng = np.random.default_rng(_derived(seed, "stream"))
        stream: List[int] = []
        fresh = iter(range(len(matrices)))
        for i in range(len(matrices) * REPEAT_EVERY // (REPEAT_EVERY - 1)):
            nxt = None if (i + 1) % REPEAT_EVERY == 0 else next(fresh, None)
            stream.append(int(rng.choice(stream)) if nxt is None else nxt)
        state.update(matrices=matrices, stream=stream)
        return state

    @staticmethod
    def service(selector) -> SelectionService:
        return SelectionService(
            selector, mode="hybrid", simulator=SpMVExecutor(KEPLER_K40C, "single"))

    def round(self, state, meter) -> Round:
        matrices, stream = state["matrices"], state["stream"]
        svc = self.service(state["selector"])
        chosen: List[str] = []
        latencies: List[float] = []
        failed = 0
        with meter:
            for k in stream:
                t0 = _clock()
                try:
                    key = svc.predict(matrices[k]).chosen
                except Exception as exc:  # counted, the loop keeps serving
                    key = f"error: {type(exc).__name__}: {exc}"
                    failed += 1
                latencies.append(_clock() - t0)
                chosen.append(key)
        errors = []
        expect = offline_decisions(svc, [matrices[k] for k in stream])
        bad = sum(1 for a, b in zip(chosen, expect) if a != b)
        if bad:
            errors.append(f"decide: {bad} served decisions differ from the offline batch")
        cols = [VOCAB.index(c) if c in VOCAB else CSR for c in chosen]
        q = quality(state["pool"].times, cols, stream)
        return Round(len(stream), failed, latencies, q, digest(chosen), errors)


def offline_decisions(svc: SelectionService, matrices) -> List[str]:
    """The hybrid rule applied by hand to one batch: the service's
    selector and simulator over every matrix at once, no caches."""
    found = [analysis.analyze_matrix(CSRMatrix.from_coo(m.to_coo())) for m in matrices]
    X = np.array([[a.features[n] for n in ALL_FEATURES] for a in found])
    fs = svc.selector.feature_set
    names = FEATURE_SETS[fs] if isinstance(fs, str) else fs
    direct = svc.selector.predict(X[:, [ALL_FEATURES.index(n) for n in names]])
    batch = ProfileBatch.from_profiles([a.profile for a in found])
    cost = svc.simulator.estimate_batch(batch, svc.formats)
    t = cost.seconds.copy()
    for i, failed in enumerate(svc.simulator.feasibility_batch(batch, svc.formats)):
        for fmt in failed:
            t[i, cost.column(fmt)] = np.inf
    t[~np.isfinite(t)] = np.inf
    out = []
    for i, d in enumerate(direct):
        best = int(np.argmin(t[i]))
        keep = t[i, d] <= (1.0 + svc.tolerance) * t[i, best]
        out.append(svc.formats[int(d) if keep else best])
    return out


# -- daemon / adapt ----------------------------------------------------------------


def _traffic(pool, seed: int, n_predicts: int) -> Tuple[List[Tuple[str, str]], List[int]]:
    """Predict-by-vector lines with Zipf popularity over the pool, each
    paired with a feedback line carrying the row's measured times.

    Returns ``(predict, feedback)`` line pairs and the pool row of each;
    request ``q<i>`` asks for row ``rows[i]``.
    """
    rng = np.random.default_rng(_derived(seed, "traffic"))
    rank = rng.permutation(len(pool))
    weight = 1.0 / (rank + 1.0) ** ZIPF_S
    rows = [int(r) for r in rng.choice(len(pool), size=n_predicts, p=weight / weight.sum())]
    pairs = []
    for i, r in enumerate(rows):
        rid = f"q{i:06d}"
        pairs.append((
            json.dumps({"op": "predict", "id": rid,
                        "vector": pool.feature_array[r].tolist()}),
            json.dumps({"op": "feedback", "id": rid,
                        "times": dict(zip(pool.formats, pool.times[r].tolist()))}),
        ))
    return pairs, rows


def _timed(lines: Sequence[str], stamps: List[float]):
    for line in lines:
        stamps.append(_clock())
        yield line
    stamps.append(_clock())


class Daemon:
    """JSON-lines protocol in process: predicts by vector plus feedback."""

    name = "daemon"
    folds = 1
    setup_repeats = 3

    def setup(self, seed: int, scratch: Path):
        state = _trained(seed)
        state["lines"], state["rows"] = self.traffic(state["pool"], seed)
        state["scratch"] = scratch
        return state

    @staticmethod
    def traffic(pool, seed: int) -> Tuple[List[str], List[int]]:
        pairs, rows = _traffic(pool, seed, DAEMON_PREDICTS)
        return [line for pair in pairs for line in pair], rows

    @contextlib.contextmanager
    def serving(self, state) -> Iterator[SelectionService]:
        yield SelectionService(state["selector"])

    def round(self, state, meter) -> Round:
        lines = state["lines"]
        sink = _Sink()
        stamps: List[float] = []
        with self.serving(state) as svc, meter:
            daemon.serve_jsonl(svc, _timed(lines, stamps), sink)
        responses = [json.loads(text) for text in sink.lines]
        errors, failed, keys, rows = [], 0, [], []
        if len(responses) != len(lines):
            errors.append(f"{self.name}: {len(responses)} responses to {len(lines)} lines")
        for line, resp in zip(lines, responses):
            want = json.loads(line).get("id")
            if not resp.get("ok"):
                failed += 1
            elif want is not None and resp.get("id") != want:
                errors.append(f"{self.name}: response id {resp.get('id')!r} != {want!r}")
            elif "config" in resp:  # a predict of request q<i>: row rows[i]
                keys.append(resp["config"]["key"])
                rows.append(state["rows"][int(want[1:])])
        if failed:
            errors.append(f"{self.name}: {failed} responses not ok")
        q = quality(state["pool"].times, [VOCAB.index(k) for k in keys], rows)
        return Round(len(lines), failed, list(np.diff(stamps)), q, digest(keys), errors)


class Adapt(Daemon):
    """``daemon`` traffic with an adaptive controller at the CLI defaults."""

    name = "adapt"
    # A round trains a candidate (~1.5 s), so a run holds few rounds;
    # one set-up fewer leaves room for more of them.
    setup_repeats = 2

    @staticmethod
    def traffic(pool, seed: int) -> Tuple[List[str], List[int]]:
        pairs, rows = _traffic(pool, seed, ADAPT_LEAD + ADAPT_PREDICTS)
        lead = [predict for predict, _ in pairs[:ADAPT_LEAD]]
        cycle = [line for pair in pairs[ADAPT_LEAD:] for line in pair]
        promote = json.dumps({"op": "promote", "reason": "end of cycle"})
        return lead + cycle + [promote], rows

    def setup(self, seed: int, scratch: Path):
        state = super().setup(seed, scratch)
        # The production model is saved once; each round serves from a
        # fresh copy, so rounds spend their time in the measured lines.
        template = scratch / "adapt-registry"
        shutil.rmtree(template, ignore_errors=True)
        ModelRegistry(template).save(state["selector"], "selector",
                                     dataset=state["train"], promote=True)
        state["template"] = template
        return state

    def round(self, state, meter) -> Round:
        lead = state["lines"][:ADAPT_LEAD]
        want = [json.loads(line)["id"] for line in lead]
        copies, answers, failed = [], [], 0
        for _ in range(LEAD_COPIES - 1):
            sink, stamps = _Sink(), []
            gc.collect()  # every copy starts as clean as a round
            with self.serving(state) as svc, meter:
                daemon.serve_jsonl(svc, _timed(lead, stamps), sink)
            copies.append(np.diff(stamps).tolist())
            responses = [json.loads(text) for text in sink.lines]
            failed += sum(1 for r in responses if not r.get("ok"))
            answers.append([(r.get("id"), r.get("config", {}).get("key")) for r in responses])
        gc.collect()
        out = super().round(state, meter)
        out.copies = copies
        out.ops += len(lead) * len(answers)
        out.failed += failed
        if failed or any([a[0] for a in got] != want or got != answers[0]
                         for got in answers):
            out.errors.append("adapt: a lead copy failed or answered differently")
        return out

    @contextlib.contextmanager
    def serving(self, state) -> Iterator[SelectionService]:
        tmp = Path(tempfile.mkdtemp(prefix="registry-", dir=state["scratch"]))
        try:
            shutil.copytree(state["template"], tmp, dirs_exist_ok=True)
            registry = ModelRegistry(tmp)
            svc = SelectionService(state["selector"])
            AdaptiveController(svc, registry, "selector", policy=ADAPT_POLICY,
                               train_every=ADAPT_TRAIN_EVERY)
            yield svc
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Campaign(), Decide(), Daemon(), Adapt())}
