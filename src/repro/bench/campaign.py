"""Parallel, fault-tolerant, resumable measurement campaigns.

The paper's ground truth is one expensive measurement campaign — every
(matrix, format) pair of a ~2300-matrix corpus, 50 repetitions each,
per (device, precision) — that all tables and figures reuse (Sec.
IV-B).  :func:`run_campaign` is the engine that runs it:

* **parallel** — the per-matrix labeling loop fans out over a
  ``concurrent.futures`` process pool (``workers`` > 1); each matrix is
  labeled by its own executor seeded from a per-matrix derived seed, so
  the result is bit-identical regardless of worker count or completion
  order;
* **resumable** — with ``shard_dir`` set, every finished matrix is
  persisted as a small JSON shard under a content key covering the
  matrix recipe *and* the campaign parameters (device, precision,
  formats, reps, seed, noise).  An interrupted campaign re-run with the
  same parameters reloads finished shards instead of re-measuring;
* **fault-tolerant** — any per-matrix error (generator failure, every
  format failing, a crashed or hung worker) records a failure reason
  and moves on, mirroring the paper dropping ~400 of its 2700 matrices,
  instead of aborting the whole campaign;
* **observable** — a ``progress`` callback receives a
  :class:`CampaignProgress` event after every matrix (done counts,
  failures, ETA, per-format running mean times), and when
  :mod:`repro.obs` is enabled the engine reports into the shared
  telemetry spine: a ``campaign.run`` span (with per-matrix child
  spans in serial mode), a ``campaign.matrix_seconds`` histogram,
  ok/failed/cached counters, a worker-utilisation gauge and
  ``campaign.progress`` events on the attached sink.

:func:`repro.core.dataset.build_dataset` is a thin wrapper over this
engine, so every consumer of labeled datasets picks it up unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..config import ReproConfig
from ..core.labeling import DEFAULT_REPS, label_matrix
from ..features import ALL_FEATURES
from ..formats import FORMAT_NAMES
from ..gpu import DeviceSpec, NoiseModel, SpMVExecutor
from ..matrices import CorpusEntry

__all__ = [
    "CampaignProgress",
    "CampaignResult",
    "MatrixResult",
    "derive_matrix_seed",
    "run_campaign",
    "shard_key",
]

#: Bump when the shard schema or the labeling semantics change; stale
#: shards are ignored and re-measured.
SHARD_VERSION = 1


# ---------------------------------------------------------------------------
# Seeds and content keys
# ---------------------------------------------------------------------------


def derive_matrix_seed(master_seed: int, name: str) -> int:
    """Stable per-matrix seed derived from the campaign master seed.

    Every matrix gets its own jitter stream, so labeling order and
    worker count cannot change any measurement (serial and parallel
    campaigns are bit-identical).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(int(master_seed).to_bytes(8, "little", signed=True))
    h.update(name.encode())
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


def shard_key(
    entry: CorpusEntry,
    device: DeviceSpec,
    precision: str,
    formats: Sequence[str],
    reps: int,
    seed: int,
    noise: NoiseModel,
) -> str:
    """Content key of one matrix's measurement under a campaign config.

    Covers the full build recipe of the matrix and every campaign
    parameter that can change the measured times, so a shard can never
    be served to a campaign it does not belong to (different device,
    precision, reps, seed, noise calibration, or format list).
    """
    payload = {
        "v": SHARD_VERSION,
        "name": entry.name,
        "family": entry.family,
        "target_nnz": entry.target_nnz,
        "entry_seed": entry.seed,
        "params": {k: entry.params[k] for k in sorted(entry.params)},
        "device": device.name,
        "precision": precision,
        "formats": list(formats),
        "reps": int(reps),
        "seed": int(seed),
        "noise": [noise.sigma_structural, noise.sigma_run, noise.seed],
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------


@dataclass
class MatrixResult:
    """Outcome of labeling one corpus matrix.

    ``ok`` results carry the 17 features (:data:`ALL_FEATURES` order)
    and the mean times per requested format; failures carry a human-
    readable ``failure`` reason instead (a matrix failing *any* format
    is a failure, per the paper's drop rule).
    """

    name: str
    key: str
    ok: bool
    features: Optional[List[float]] = None
    times: Optional[List[float]] = None
    failure: Optional[str] = None
    elapsed_s: float = 0.0
    cached: bool = False

    def to_json(self) -> Dict:
        return {
            "version": SHARD_VERSION,
            "name": self.name,
            "key": self.key,
            "ok": self.ok,
            "features": self.features,
            "times": self.times,
            "failure": self.failure,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "MatrixResult":
        return cls(
            name=data["name"],
            key=data["key"],
            ok=data["ok"],
            features=data["features"],
            times=data["times"],
            failure=data["failure"],
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            cached=True,
        )


@dataclass
class CampaignProgress:
    """One observability event, emitted after every finished matrix."""

    total: int            #: matrices in the campaign
    done: int             #: matrices finished (ok + failed, incl. cached)
    ok: int               #: successfully labeled
    failed: int           #: recorded failures
    cached: int           #: served from resume shards
    elapsed_s: float      #: wall time since the campaign started
    eta_s: float          #: naive remaining-time estimate
    name: str             #: matrix that just finished
    format_means: Dict[str, float] = field(default_factory=dict)
    #: running mean seconds per format over the ok results so far


@dataclass
class CampaignResult:
    """Full campaign outcome: one :class:`MatrixResult` per corpus entry."""

    results: List[MatrixResult]
    formats: Tuple[str, ...]
    device: str
    precision: str
    reps: int
    seed: int

    @property
    def failures(self) -> Dict[str, str]:
        """``name -> reason`` for every matrix that did not survive."""
        return {r.name: r.failure or "unknown" for r in self.results if not r.ok}

    @property
    def n_ok(self) -> int:
        return sum(1 for r in self.results if r.ok)

    def to_dataset(self):
        """Pack surviving matrices into an :class:`~repro.core.SpMVDataset`."""
        from ..core.dataset import SpMVDataset

        ok = [r for r in self.results if r.ok]
        if not ok:
            raise ValueError("no corpus matrix survived labeling")
        return SpMVDataset(
            names=[r.name for r in ok],
            feature_array=np.array([r.features for r in ok], dtype=float),
            times=np.array([r.times for r in ok], dtype=float),
            formats=self.formats,
            device=self.device,
            precision=self.precision,
            reps=self.reps,
        )

    def write_failure_log(self, path: Union[str, Path]) -> None:
        """Write a ``name,reason`` CSV of dropped matrices."""
        lines = ["name,reason"]
        for r in self.results:
            if not r.ok:
                reason = (r.failure or "unknown").replace("\n", " ").replace(",", ";")
                lines.append(f"{r.name},{reason}")
        Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------


def _label_one(payload: Tuple) -> MatrixResult:
    """Label one matrix; never raises (failures become records).

    Runs in a worker process (or inline for serial campaigns).  Any
    exception — generator failure, every-format-failed, an injected
    fault — is caught and returned as a failed :class:`MatrixResult`;
    a hard worker death is handled by the pool loop in
    :func:`run_campaign`.
    """
    entry, device, precision, formats, reps, noise, seed, key, timeout_s = payload
    start = time.perf_counter()
    try:
        alarm_set = False
        try:
            if timeout_s:
                import signal

                if hasattr(signal, "SIGALRM"):

                    def _on_alarm(signum, frame):  # pragma: no cover - timing
                        raise TimeoutError(f"labeling exceeded {timeout_s:g}s")

                    signal.signal(signal.SIGALRM, _on_alarm)
                    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
                    alarm_set = True
            matrix = entry.build()
            executor = SpMVExecutor(device, precision, noise=noise, seed=seed)
            label = label_matrix(
                executor, matrix, name=entry.name, formats=formats, reps=reps
            )
            if not label.complete:
                reasons = "; ".join(
                    f"{f}: {r}" for f, r in sorted(label.failed.items())
                )
                return MatrixResult(
                    name=entry.name,
                    key=key,
                    ok=False,
                    failure=f"incomplete: {reasons}",
                    elapsed_s=time.perf_counter() - start,
                )
            return MatrixResult(
                name=entry.name,
                key=key,
                ok=True,
                features=[float(label.features[f]) for f in ALL_FEATURES],
                times=[float(label.times[f]) for f in formats],
                elapsed_s=time.perf_counter() - start,
            )
        finally:
            # Cancel before leaving so a late alarm cannot hit unrelated
            # code; one firing *inside* this finally still lands in the
            # outer except below.
            if alarm_set:
                import signal

                signal.setitimer(signal.ITIMER_REAL, 0.0)
    except BaseException as exc:
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return MatrixResult(
            name=entry.name,
            key=key,
            ok=False,
            failure=f"{type(exc).__name__}: {exc}",
            elapsed_s=time.perf_counter() - start,
        )


# ---------------------------------------------------------------------------
# Shard persistence
# ---------------------------------------------------------------------------


def _load_shard(shard_dir: Path, key: str, name: str) -> Optional[MatrixResult]:
    path = shard_dir / f"{key}.json"
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None  # truncated/corrupt shard: re-measure
    if data.get("version") != SHARD_VERSION or data.get("name") != name:
        return None
    return MatrixResult.from_json(data)


def _write_shard(shard_dir: Path, result: MatrixResult) -> None:
    # Atomic write so an interrupted campaign never leaves a torn shard.
    path = shard_dir / f"{result.key}.json"
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(result.to_json()))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None:
        workers = ReproConfig.from_env().workers
    return max(1, int(workers))


def run_campaign(
    corpus: Iterable[CorpusEntry],
    device: DeviceSpec,
    precision: str = "single",
    *,
    formats: Sequence[str] = FORMAT_NAMES,
    tuned: bool = False,
    reps: int = DEFAULT_REPS,
    noise: Optional[NoiseModel] = None,
    seed: int = 0,
    workers: Optional[int] = None,
    shard_dir: Optional[Union[str, Path]] = None,
    progress: Optional[Callable[[CampaignProgress], None]] = None,
    timeout_s: Optional[float] = None,
) -> CampaignResult:
    """Run the measurement campaign over ``corpus``.

    Parameters
    ----------
    corpus:
        Any iterable of :class:`~repro.matrices.CorpusEntry` (a
        :class:`~repro.matrices.SyntheticCorpus` works directly).
    device, precision, formats, reps, noise, seed:
        The campaign configuration, as in
        :func:`~repro.core.dataset.build_dataset`.  ``formats`` may mix
        bare format names and tuning configuration keys
        (``"hyb?split=2"`` — see :mod:`repro.tuning`).
    tuned:
        Label over the joint format+parameter grid
        (:func:`repro.tuning.tuned_space`) instead of the six default
        formats.  Convenience flag: only applies when ``formats`` is
        left at its default, so an explicit vocabulary always wins.
    workers:
        Process-pool width; ``1`` runs inline.  Defaults to
        ``ReproConfig.from_env().workers`` (``REPRO_WORKERS``, itself
        defaulting to 1).  Results are bit-identical for any worker
        count.
    shard_dir:
        Directory for per-matrix resume shards; ``None`` disables
        resumability.
    progress:
        Callback receiving a :class:`CampaignProgress` after every
        finished matrix.
    timeout_s:
        Per-matrix soft labeling timeout (POSIX only); a matrix
        exceeding it is recorded as failed.

    Returns
    -------
    CampaignResult
        One result per corpus entry, in corpus order.
    """
    entries = list(corpus)
    noise = noise if noise is not None else NoiseModel()
    workers = _resolve_workers(workers)
    if tuned and tuple(formats) == tuple(FORMAT_NAMES):
        from .. import tuning

        formats = tuning.tuned_space()
    formats = tuple(formats)
    shard_path: Optional[Path] = None
    if shard_dir is not None:
        shard_path = Path(shard_dir)
        shard_path.mkdir(parents=True, exist_ok=True)

    n = len(entries)
    results: List[Optional[MatrixResult]] = [None] * n
    start = time.perf_counter()
    done = ok = failed = cached = 0
    fmt_sums = {f: 0.0 for f in formats}

    def _finish(i: int, result: MatrixResult) -> None:
        nonlocal done, ok, failed, cached
        results[i] = result
        done += 1
        if result.ok:
            ok += 1
            for f, t in zip(formats, result.times):
                fmt_sums[f] += t
        else:
            failed += 1
        if result.cached:
            cached += 1
        elif shard_path is not None:
            _write_shard(shard_path, result)
        if obs.enabled():
            obs.incr("campaign.matrices_ok" if result.ok
                     else "campaign.matrices_failed")
            if result.cached:
                obs.incr("campaign.shard_hits")
            else:
                obs.observe("campaign.matrix_seconds", result.elapsed_s)
            obs.emit("campaign.progress", {
                "name": result.name, "done": done, "total": n,
                "ok": ok, "failed": failed, "cached": cached,
            })
        if progress is not None:
            elapsed = time.perf_counter() - start
            fresh = done - cached
            eta = (elapsed / fresh) * (n - done) if fresh else 0.0
            progress(
                CampaignProgress(
                    total=n,
                    done=done,
                    ok=ok,
                    failed=failed,
                    cached=cached,
                    elapsed_s=elapsed,
                    eta_s=eta,
                    name=result.name,
                    format_means={f: fmt_sums[f] / ok for f in formats} if ok else {},
                )
            )

    def _payload(i: int, key: str) -> Tuple:
        return (entries[i], device, precision, formats, reps, noise,
                derive_matrix_seed(seed, entries[i].name), key, timeout_s)

    with obs.span("campaign.run"):
        # Pass 1: serve finished shards.
        keys = [
            shard_key(e, device, precision, formats, reps, seed, noise)
            for e in entries
        ]
        todo: List[int] = []
        for i, entry in enumerate(entries):
            hit = _load_shard(shard_path, keys[i], entry.name) if shard_path else None
            if hit is not None:
                _finish(i, hit)
            else:
                todo.append(i)

        # Pass 2: measure what's missing.
        if todo and workers == 1:
            for i in todo:
                res = _label_one(_payload(i, keys[i]))
                # Serial labeling happens on this thread, inside the
                # campaign.run wall time, so the measured duration is a
                # genuine child span.  (Parallel labeling overlaps — its
                # durations go to the histogram in _finish instead, which
                # keeps the parent >= sum-of-children invariant true.)
                obs.record_span("campaign.matrix", res.elapsed_s)
                _finish(i, res)
        elif todo:
            _run_pool(todo, _payload, keys, workers, _finish, entries)

        if obs.enabled():
            obs.set_gauge("campaign.workers", workers)
            wall = time.perf_counter() - start
            busy = sum(r.elapsed_s for r in results if r is not None and not r.cached)
            if wall > 0 and done > cached:
                obs.set_gauge("campaign.worker_utilisation",
                              min(1.0, busy / (wall * workers)))

    return CampaignResult(
        results=[r for r in results if r is not None],
        formats=formats,
        device=device.name,
        precision=precision,
        reps=reps,
        seed=seed,
    )


def _run_pool(
    todo: List[int],
    payload: Callable[[int, str], Tuple],
    keys: List[str],
    workers: int,
    finish: Callable[[int, MatrixResult], None],
    entries: List[CorpusEntry],
) -> None:
    """Fan ``todo`` out over a process pool, surviving worker deaths.

    Python-level errors never reach here (:func:`_label_one` converts
    them to failure records); a future that raises means its worker
    process died (segfault, OOM-kill, hard timeout).  One death breaks
    the whole ``ProcessPoolExecutor``, taking every in-flight future
    with it, so every crashed task is retried once in its *own*
    single-worker pool: collateral victims of someone else's crash then
    succeed, and only the genuinely poisonous matrix is recorded as
    crashed.  This keeps results independent of crash timing.
    """
    crashed: List[Tuple[int, BaseException]] = []
    with ProcessPoolExecutor(max_workers=min(workers, len(todo))) as pool:
        futures = {pool.submit(_label_one, payload(i, keys[i])): i for i in todo}
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in finished:
                i = futures[fut]
                try:
                    finish(i, fut.result())
                except BaseException as exc:
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    crashed.append((i, exc))
    for i, _ in sorted(crashed):
        with ProcessPoolExecutor(max_workers=1) as pool:
            fut = pool.submit(_label_one, payload(i, keys[i]))
            try:
                finish(i, fut.result())
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                finish(
                    i,
                    MatrixResult(
                        name=entries[i].name,
                        key=keys[i],
                        ok=False,
                        failure=f"worker crashed: {type(exc).__name__}: {exc}",
                    ),
                )
