"""Adaptive serving: the closed online-learning loop.

The serving stack records observed timings and rolling regret
(:mod:`repro.serve.feedback`), but until this module the models it
serves never improved.  :class:`AdaptiveController` turns the existing
feedback / registry / observability plumbing into a closed loop:

1. **Experience accumulation** — every feedback event whose decision
   carried the canonical 17-feature vector becomes a training row in a
   bounded :class:`ExperienceBuffer` (features + observed per-format
   seconds), convertible to an :class:`~repro.core.dataset.SpMVDataset`.
2. **Incremental / warm-restart training** — once enough rows
   accumulate, a **candidate** selector is trained: warm-started from
   the PRODUCTION artifact for model families that support it (MLP,
   boosting — see ``warm_fit`` on :class:`~repro.core.FormatSelector`),
   refit from scratch otherwise — and saved as a new version in the
   :class:`~repro.serve.registry.ModelRegistry`.
3. **Shadow evaluation** — every predict is answered by PRODUCTION
   while the candidate scores the same batch off the hot path; when
   observed times come back, both models' regret on the *same* events
   is tracked in a :class:`ShadowScoreboard`.
4. **Regret-gated auto-promotion** — a :class:`PromotionPolicy`
   (minimum paired samples, minimum relative regret improvement,
   cooldown) decides when the candidate replaces PRODUCTION: the
   registry alias moves, the live service hot-swaps the model, and an
   auditable promotion record lands in ``PROMOTIONS.jsonl``.
   ``promote`` / ``rollback`` daemon+server ops and the
   ``repro-spmv adapt`` CLI provide the manual override.
5. **Drift detection** — a Page–Hinkley test over the regret stream
   plus a windowed mean-shift statistic over the served feature
   distribution (:class:`DriftMonitor`), surfaced as ``repro.obs``
   gauges/counters and a ``drift`` section in ``stats``; an alarm
   fast-tracks the next training round.

Everything here is defensive at the serving boundary: the controller's
hooks never raise into :meth:`SelectionService.predict_batch` /
:meth:`record_feedback` — failures are counted on the
``serve.adaptive.errors`` counter instead.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.dataset import SpMVDataset
from ..core.selector import MODEL_REGISTRY, FormatSelector
from ..features import ALL_FEATURES
from ..gpu.cache import LRUCache
from ..ml import clone as ml_clone
from .feedback import FeedbackEvent
from .registry import ModelRegistry, ModelRecord, feature_names

__all__ = [
    "AdaptiveController",
    "AdaptiveError",
    "DriftMonitor",
    "ExperienceBuffer",
    "PageHinkley",
    "PromotionPolicy",
    "ShadowScoreboard",
]

_CANONICAL = tuple(ALL_FEATURES)


class AdaptiveError(RuntimeError):
    """Raised on invalid adaptive-loop operations (no candidate, gate
    not met without ``force``, nothing to roll back to, ...)."""


# ---------------------------------------------------------------------------
# Experience buffer
# ---------------------------------------------------------------------------


class ExperienceBuffer:
    """Bounded, thread-safe store of (features, observed-times) rows.

    Feedback events arrive one at a time from serving threads; the
    trainer drains a consistent snapshot.  Rows are kept regardless of
    how many formats their observation covered — coverage filtering
    happens in :meth:`to_dataset`, where the label (argmin) is formed.
    """

    def __init__(self, maxlen: int = 4096, *, min_coverage: int = 2) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        if min_coverage < 1:
            raise ValueError("min_coverage must be >= 1")
        self.maxlen = maxlen
        self.min_coverage = min_coverage
        self._lock = threading.Lock()
        self._rows: Deque[Tuple[str, np.ndarray, Dict[str, float]]] = deque(
            maxlen=maxlen
        )
        self._n_added = 0

    def add(
        self,
        request_id: str,
        features: np.ndarray,
        observed: Mapping[str, float],
    ) -> None:
        """Append one experience row (canonical 17-feature order)."""
        vec = np.asarray(features, dtype=np.float64)
        if vec.shape != (len(_CANONICAL),):
            raise ValueError(
                f"features must be the canonical {len(_CANONICAL)}-vector, "
                f"got shape {vec.shape}"
            )
        times = {str(k): float(v) for k, v in observed.items()}
        with self._lock:
            self._rows.append((str(request_id), vec, times))
            self._n_added += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    @property
    def n_added(self) -> int:
        """Total rows ever added (monotonic; retention is bounded)."""
        with self._lock:
            return self._n_added

    def rows(self) -> List[Tuple[str, np.ndarray, Dict[str, float]]]:
        """Snapshot of the retained rows (oldest first)."""
        with self._lock:
            return list(self._rows)

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()

    def to_dataset(
        self,
        formats: Sequence[str],
        *,
        device: str = "live",
        precision: str = "single",
    ) -> Optional[SpMVDataset]:
        """Convert retained rows into a trainable :class:`SpMVDataset`.

        Only rows whose observation covers at least ``min_coverage``
        formats of the vocabulary contribute (with a single covered
        format the argmin label would merely imitate the current
        policy).  Unobserved formats are filled with ``inf`` so the
        label — and nothing else — is defined; the result feeds
        *selector* (classification) training, not time regression.
        Returns ``None`` when no row qualifies.
        """
        formats = tuple(formats)
        names: List[str] = []
        feats: List[np.ndarray] = []
        times: List[np.ndarray] = []
        for rid, vec, observed in self.rows():
            row = np.full(len(formats), np.inf)
            covered = 0
            for j, fmt in enumerate(formats):
                if fmt in observed:
                    row[j] = observed[fmt]
                    covered += 1
            if covered < self.min_coverage:
                continue
            names.append(rid)
            feats.append(vec)
            times.append(row)
        if not names:
            return None
        return SpMVDataset(
            names=names,
            feature_array=np.stack(feats),
            times=np.stack(times),
            formats=formats,
            device=device,
            precision=precision,
        )


# ---------------------------------------------------------------------------
# Promotion policy + shadow scoreboard
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromotionPolicy:
    """Regret gate deciding when a shadow candidate goes to production.

    Attributes
    ----------
    min_samples:
        Minimum *paired* feedback events — observations that scored
        both PRODUCTION and the candidate — before the gate opens.
    min_improvement:
        Required relative mean-regret improvement,
        ``(prod − shadow) / prod``.
    cooldown_s:
        Minimum seconds since the previous promotion (or rollback).
    """

    min_samples: int = 50
    min_improvement: float = 0.05
    cooldown_s: float = 0.0

    def evaluate(
        self,
        *,
        n_paired: int,
        shadow_regret_mean: float,
        production_regret_mean: float,
        seconds_since_promotion: Optional[float] = None,
    ) -> Tuple[bool, str]:
        """Gate decision as ``(promote?, reason)``."""
        if n_paired < self.min_samples:
            return False, (
                f"insufficient samples: {n_paired}/{self.min_samples} paired"
            )
        if (
            seconds_since_promotion is not None
            and seconds_since_promotion < self.cooldown_s
        ):
            return False, (
                f"cooldown: {seconds_since_promotion:.1f}s since last "
                f"promotion < {self.cooldown_s:.1f}s"
            )
        if production_regret_mean <= 0.0:
            return False, "production regret already zero"
        improvement = (
            production_regret_mean - shadow_regret_mean
        ) / production_regret_mean
        if improvement < self.min_improvement:
            return False, (
                f"improvement {improvement:+.1%} < "
                f"required {self.min_improvement:.1%}"
            )
        return True, (
            f"improvement {improvement:+.1%} over {n_paired} paired samples "
            f"(prod {production_regret_mean:.4f} -> "
            f"shadow {shadow_regret_mean:.4f})"
        )


class ShadowScoreboard:
    """Per-candidate-version quality ledger, paired against PRODUCTION.

    Every feedback event whose observation covers the candidate's
    choice contributes one *paired* sample: the production regret (what
    the service actually served) and the shadow regret (what the
    candidate would have suffered) on identical observed times.
    """

    def __init__(self, name: str, version: str) -> None:
        self.name = name
        self.version = version
        self._lock = threading.Lock()
        self.n_decisions = 0
        self.n_paired = 0
        self.n_uncovered = 0
        self.n_agreements = 0
        self._shadow_regret_sum = 0.0
        self._production_regret_sum = 0.0

    def record_decisions(self, n: int) -> None:
        with self._lock:
            self.n_decisions += n

    def record_pair(
        self, shadow_regret: float, production_regret: float, agreed: bool
    ) -> None:
        with self._lock:
            self.n_paired += 1
            self._shadow_regret_sum += max(0.0, shadow_regret)
            self._production_regret_sum += max(0.0, production_regret)
            if agreed:
                self.n_agreements += 1

    def record_uncovered(self) -> None:
        with self._lock:
            self.n_uncovered += 1

    def shadow_regret_mean(self) -> float:
        with self._lock:
            return self._shadow_regret_sum / self.n_paired if self.n_paired else 0.0

    def production_regret_mean(self) -> float:
        with self._lock:
            return (
                self._production_regret_sum / self.n_paired
                if self.n_paired else 0.0
            )

    def snapshot(self) -> Dict:
        with self._lock:
            paired = self.n_paired
            shadow_mean = self._shadow_regret_sum / paired if paired else 0.0
            prod_mean = self._production_regret_sum / paired if paired else 0.0
            improvement = (
                (prod_mean - shadow_mean) / prod_mean if prod_mean > 0 else 0.0
            )
            return {
                "version": self.version,
                "n_decisions": self.n_decisions,
                "n_paired": paired,
                "n_uncovered": self.n_uncovered,
                "agreement_rate": self.n_agreements / paired if paired else 0.0,
                "shadow_regret_mean": shadow_mean,
                "production_regret_mean": prod_mean,
                "improvement": improvement,
            }


# ---------------------------------------------------------------------------
# Drift detection
# ---------------------------------------------------------------------------


class PageHinkley:
    """Page–Hinkley test for an upward mean shift in a scalar stream.

    Classic sequential change detection: track the cumulative deviation
    of each observation from the running mean (minus a tolerance
    ``delta``); when the cumulative sum rises ``threshold`` above its
    historical minimum, the mean has shifted up and :meth:`update`
    returns ``True``.
    """

    def __init__(
        self,
        *,
        delta: float = 0.005,
        threshold: float = 0.5,
        min_samples: int = 30,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be > 0")
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._cum = 0.0
        self._cum_min = 0.0

    @property
    def statistic(self) -> float:
        """Current test statistic (distance of the cusum above its min)."""
        return self._cum - self._cum_min

    def update(self, x: float) -> bool:
        """Feed one observation; returns ``True`` on an alarm."""
        x = float(x)
        self.n += 1
        self._mean += (x - self._mean) / self.n
        self._cum += x - self._mean - self.delta
        self._cum_min = min(self._cum_min, self._cum)
        return self.n >= self.min_samples and self.statistic > self.threshold


class DriftMonitor:
    """Workload drift over the served feature distribution and regret.

    Two detectors, surfaced side by side:

    * **feature shift** — the first ``window`` canonical feature
      vectors form a frozen *reference*; the latest ``window`` form the
      *recent* window.  The statistic is the largest per-feature
      normalised mean shift ``|mu_recent − mu_ref| / (sigma_ref + eps)``
      (a windowed mean-shift test in reference-sigma units).
    * **regret** — a :class:`PageHinkley` test over the per-event
      regret stream (the selector getting *worse* is drift even when
      the inputs look stationary).

    :meth:`update` returns ``True`` on the rising edge of either alarm.
    """

    def __init__(
        self,
        *,
        window: int = 256,
        shift_threshold: float = 3.0,
        page_hinkley: Optional[PageHinkley] = None,
    ) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self.shift_threshold = float(shift_threshold)
        self.page_hinkley = page_hinkley or PageHinkley()
        self._lock = threading.Lock()
        self._reference: List[np.ndarray] = []
        self._recent: Deque[np.ndarray] = deque(maxlen=window)
        self._ref_mean: Optional[np.ndarray] = None
        self._ref_sigma: Optional[np.ndarray] = None
        self._feature_shift = 0.0
        self._alarmed = False
        #: Rising-edge alarm count; a controller publishes this counter
        #: as ``serve.adaptive.drift.alarms``.
        self.alarms = obs.Counter("serve.adaptive.drift.alarms")
        self.n_observations = 0

    @property
    def n_alarms(self) -> int:
        """Rising-edge alarms raised so far."""
        return int(self.alarms.value)

    def _freeze_reference(self) -> None:
        ref = np.stack(self._reference)
        self._ref_mean = ref.mean(axis=0)
        self._ref_sigma = ref.std(axis=0)

    def feature_shift(self) -> float:
        """Latest normalised mean-shift statistic (0 until windows fill)."""
        with self._lock:
            return self._feature_shift

    def update(
        self,
        features: Optional[np.ndarray] = None,
        regret: Optional[float] = None,
    ) -> bool:
        """Feed one served observation; ``True`` on a rising-edge alarm."""
        ph_alarm = False
        if regret is not None and math.isfinite(regret):
            ph_alarm = self.page_hinkley.update(max(0.0, regret))
        with self._lock:
            self.n_observations += 1
            if features is not None:
                vec = np.asarray(features, dtype=np.float64)
                if len(self._reference) < self.window:
                    self._reference.append(vec)
                    if len(self._reference) == self.window:
                        self._freeze_reference()
                self._recent.append(vec)
                if self._ref_mean is not None and len(self._recent) == self.window:
                    recent_mean = np.mean(np.stack(self._recent), axis=0)
                    shifts = np.abs(recent_mean - self._ref_mean) / (
                        self._ref_sigma + 1e-12
                    )
                    self._feature_shift = float(shifts.max())
            shift_alarm = self._feature_shift > self.shift_threshold
            alarmed = ph_alarm or shift_alarm
            rising = alarmed and not self._alarmed
            self._alarmed = alarmed
            if rising:
                self.alarms.inc()
            return rising

    def reset(self) -> None:
        """Drop the regret detector state and the alarm latch.

        The feature reference window is kept: the training data the
        production model saw does not change just because the loop
        retrained on recent rows.
        """
        with self._lock:
            self.page_hinkley.reset()
            self._alarmed = False

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "observations": self.n_observations,
                "feature_shift": self._feature_shift,
                "shift_threshold": self.shift_threshold,
                "reference_filled": self._ref_mean is not None,
                "regret_ph": self.page_hinkley.statistic,
                "regret_ph_threshold": self.page_hinkley.threshold,
                "alarmed": self._alarmed,
                "alarms": self.n_alarms,
            }


# ---------------------------------------------------------------------------
# The controller
# ---------------------------------------------------------------------------


def _published(cls, name: str):
    """A new ``serve.adaptive.<name>`` metric, published in the registry."""
    return obs.get_metrics().publish(cls(f"serve.adaptive.{name}"))


class _Shadow:
    """One live candidate: the model, its registry record, its ledger."""

    __slots__ = ("model", "record", "scoreboard", "feature_names")

    def __init__(self, model, record: ModelRecord) -> None:
        self.model = model
        self.record = record
        self.scoreboard = ShadowScoreboard(record.name, record.version)
        self.feature_names = feature_names(model.feature_set)


class AdaptiveController:
    """Close the online-learning loop around a :class:`SelectionService`.

    Parameters
    ----------
    service:
        The live service; the controller attaches itself
        (``service.attach_adaptive``) so predict/feedback hooks fire.
    registry / model_name:
        Where candidate versions are saved and promoted.  The
        production alias of ``model_name`` must resolve to the selector
        the service is serving.
    policy:
        :class:`PromotionPolicy` gating auto-promotion.
    train_every:
        Auto mode trains a fresh candidate every this many new buffer
        rows (a drift alarm fast-tracks the next round).
    min_train_rows:
        Minimum qualifying dataset rows before any training happens.
    warm_start:
        Warm-start candidates from the production artifact when the
        model family supports it (MLP / boosting); otherwise refit.
    warm_kwargs:
        Extra keyword arguments for ``warm_fit`` (e.g. ``n_epochs=20``).
    base_dataset:
        Optional offline dataset concatenated with the experience rows
        for cold refits, so tiny live buffers don't collapse the
        decision surface.
    drift:
        :class:`DriftMonitor` (a default one is built when omitted).
    auto:
        Run the train → evaluate → promote loop automatically from the
        feedback hook.  With ``auto=False`` the controller only
        accumulates and scores; call :meth:`train_candidate` /
        :meth:`promote` explicitly (the daemon ops do).
    """

    def __init__(
        self,
        service,
        registry,
        model_name: str,
        *,
        policy: Optional[PromotionPolicy] = None,
        train_every: int = 64,
        min_train_rows: int = 16,
        min_coverage: int = 2,
        buffer_size: int = 4096,
        warm_start: bool = True,
        warm_kwargs: Optional[Dict] = None,
        base_dataset: Optional[SpMVDataset] = None,
        drift: Optional[DriftMonitor] = None,
        auto: bool = True,
        clock=time.monotonic,
    ) -> None:
        if train_every < 1:
            raise ValueError("train_every must be >= 1")
        if min_train_rows < 1:
            raise ValueError("min_train_rows must be >= 1")
        self.service = service
        self.registry = (
            registry if isinstance(registry, ModelRegistry)
            else ModelRegistry(registry)
        )
        self.model_name = model_name
        self.policy = policy or PromotionPolicy()
        self.train_every = train_every
        self.min_train_rows = min_train_rows
        self.warm_start = warm_start
        self.warm_kwargs = dict(warm_kwargs or {})
        self.base_dataset = base_dataset
        self.drift = drift or DriftMonitor()
        self.auto = auto
        self.buffer = ExperienceBuffer(buffer_size, min_coverage=min_coverage)
        self._clock = clock
        self._lock = threading.RLock()
        self._shadow: Optional[_Shadow] = None
        self._features = LRUCache(buffer_size)        # rid -> (names, vec)
        self._shadow_choices = LRUCache(buffer_size)  # rid -> format name
        self._shadow_cache = LRUCache(512)            # (ver, vec) -> choice
        self._pending_lock = threading.Lock()
        self._pending: Deque[Tuple] = deque()         # rows awaiting scoring
        self._pending_rows = 0
        self._pending_max = buffer_size
        self._rows_at_last_train = 0
        self._last_promotion_t: Optional[float] = None
        self._drift_pending = False
        self.n_rows_skipped = 0
        # Live metrics (always recorded, like ServiceTelemetry): each
        # controller owns its objects and publishes them, so the counts
        # below are stored once and process snapshots show them.
        self._m_trainings = _published(obs.Counter, "trainings")
        self._m_promotions = _published(obs.Counter, "promotions")
        self._m_rollbacks = _published(obs.Counter, "rollbacks")
        self._m_skipped = _published(obs.Counter, "promotions_skipped")
        self._m_shadow_decisions = _published(obs.Counter, "shadow_decisions")
        self._m_shadow_paired = _published(obs.Counter, "shadow_paired")
        self._m_errors = _published(obs.Counter, "errors")
        self._m_buffer = _published(obs.Gauge, "buffer_rows")
        self._m_shadow_regret = _published(obs.Gauge, "shadow_regret_mean")
        self._m_prod_regret = _published(obs.Gauge, "production_regret_mean")
        self._m_shift = _published(obs.Gauge, "drift.feature_shift")
        self._m_ph = _published(obs.Gauge, "drift.regret_ph")
        obs.get_metrics().publish(self.drift.alarms)
        self._m_shadow_seconds = _published(obs.Histogram, "shadow_seconds")
        service.attach_adaptive(self)

    @property
    def n_trainings(self) -> int:
        """Candidates this controller trained."""
        return int(self._m_trainings.value)

    @property
    def n_promotions(self) -> int:
        """Promotions this controller made (gated, forced or manual)."""
        return int(self._m_promotions.value)

    @property
    def n_rollbacks(self) -> int:
        """Rollbacks this controller made."""
        return int(self._m_rollbacks.value)

    # -- service hooks (never raise into the serving path) ------------------

    def observe_batch(self, rows: Sequence[Tuple[str, Tuple[str, ...], np.ndarray, str]]) -> None:
        """Hook from :meth:`SelectionService.predict_batch`.

        ``rows`` carries ``(request_id, feature_names, vector,
        chosen_format)`` per served decision.  The predict path pays
        only bounded-LRU bookkeeping here: features are stashed for
        later experience rows and the batch is *queued* for shadow
        scoring, which runs lazily off the hot path (on the next
        feedback/status drain) — candidate model time never lands in
        serving latency.
        """
        try:
            for rid, names, vec, _chosen in rows:
                self._features.put(rid, (tuple(names), vec))
            if self._shadow is not None:
                with self._pending_lock:
                    self._pending.append(tuple(rows))
                    self._pending_rows += len(rows)
                    while self._pending_rows > self._pending_max and self._pending:
                        self._pending_rows -= len(self._pending.popleft())
        except Exception:
            self._m_errors.inc()

    def _drain_shadow(self) -> None:
        """Score every queued batch with the current candidate."""
        shadow = self._shadow
        with self._pending_lock:
            if not self._pending:
                return
            batches = list(self._pending)
            self._pending.clear()
            self._pending_rows = 0
        if shadow is None:
            return
        t0 = time.perf_counter()
        for rows in batches:
            self._score_shadow(shadow, rows)
        self._m_shadow_seconds.observe(time.perf_counter() - t0)

    def _score_shadow(self, shadow: _Shadow, rows) -> None:
        """Run the candidate over the batch, caching per-vector choices."""
        want = shadow.feature_names
        misses: Dict[Tuple, List[str]] = {}
        miss_vecs: Dict[Tuple, np.ndarray] = {}
        scored = 0
        for rid, names, vec, _chosen in rows:
            names = tuple(names)
            key = (shadow.record.version, names, vec.tobytes())
            cached = self._shadow_cache.get(key)
            if cached is not None:
                self._shadow_choices.put(rid, cached)
                scored += 1
                continue
            if not set(want) <= set(names):
                continue  # request features cannot feed the candidate
            misses.setdefault(key, []).append(rid)
            miss_vecs[key] = vec if names == want else vec[
                [names.index(n) for n in want]
            ]
        if misses:
            keys = list(misses)
            X = np.stack([miss_vecs[k] for k in keys])
            picks = shadow.model.predict(X)
            formats = shadow.model.formats_
            for key, pick in zip(keys, picks):
                fmt = formats[int(pick)]
                self._shadow_cache.put(key, fmt)
                for rid in misses[key]:
                    self._shadow_choices.put(rid, fmt)
                    scored += 1
        shadow.scoreboard.record_decisions(scored)
        self._m_shadow_decisions.inc(scored)

    def observe_feedback(self, event: FeedbackEvent) -> None:
        """Hook from :meth:`SelectionService.record_feedback`."""
        try:
            self._ingest_feedback(event)
            if self.auto:
                self._auto_step()
        except Exception:
            self._m_errors.inc()

    def _ingest_feedback(self, event: FeedbackEvent) -> None:
        # Pairing needs the candidate's choice for this request; catch
        # up on any shadow scoring deferred off the predict path first.
        self._drain_shadow()
        stored = self._features.get(event.request_id)
        vec17 = None
        if stored is not None and stored[0] == _CANONICAL:
            vec17 = stored[1]
            self.buffer.add(event.request_id, vec17, event.observed)
        else:
            with self._lock:
                self.n_rows_skipped += 1
        self._m_buffer.set(len(self.buffer))

        if self.drift.update(features=vec17, regret=event.regret):
            with self._lock:
                self._drift_pending = True
        snap = self.drift.snapshot()
        self._m_shift.set(snap["feature_shift"])
        self._m_ph.set(snap["regret_ph"])

        shadow = self._shadow
        if shadow is not None:
            choice = self._shadow_choices.get(event.request_id)
            if choice is None:
                pass  # decision predates the candidate (or was uncoverable)
            elif choice in event.observed:
                best = min(event.observed.values())
                shadow_regret = (
                    event.observed[choice] / best - 1.0 if best > 0 else 0.0
                )
                shadow.scoreboard.record_pair(
                    shadow_regret, event.regret, agreed=(choice == event.chosen)
                )
                self._m_shadow_paired.inc()
                self._m_shadow_regret.set(shadow.scoreboard.shadow_regret_mean())
                self._m_prod_regret.set(
                    shadow.scoreboard.production_regret_mean()
                )
            else:
                shadow.scoreboard.record_uncovered()

    # -- the automatic loop --------------------------------------------------

    def _rows_since_train(self) -> int:
        return self.buffer.n_added - self._rows_at_last_train

    def _auto_step(self) -> None:
        with self._lock:
            due = self._rows_since_train() >= self.train_every or (
                self._drift_pending
                and self._rows_since_train() >= self.min_train_rows
            )
            shadow = self._shadow
            if shadow is None:
                if due:
                    self.train_candidate()
                return
            board = shadow.scoreboard.snapshot()
            ok, _reason = self._evaluate_gate(board)
            if ok:
                self.promote(reason="auto")
                return
            if board["n_paired"] >= self.policy.min_samples:
                self._m_skipped.inc()
                # A candidate that saw enough traffic and still fails the
                # gate is stale; let fresh experience replace it.
                if due:
                    self.train_candidate()

    def _evaluate_gate(self, board: Dict) -> Tuple[bool, str]:
        since = (
            None if self._last_promotion_t is None
            else self._clock() - self._last_promotion_t
        )
        return self.policy.evaluate(
            n_paired=board["n_paired"],
            shadow_regret_mean=board["shadow_regret_mean"],
            production_regret_mean=board["production_regret_mean"],
            seconds_since_promotion=since,
        )

    # -- training ------------------------------------------------------------

    def _production(self) -> Tuple[FormatSelector, ModelRecord]:
        return self.registry.load(self.model_name)

    def _concat(self, base: SpMVDataset, live: SpMVDataset) -> SpMVDataset:
        if tuple(base.formats) != tuple(live.formats):
            raise AdaptiveError(
                f"base dataset formats {tuple(base.formats)} do not match "
                f"the serving vocabulary {tuple(live.formats)}"
            )
        return SpMVDataset(
            names=list(base.names) + list(live.names),
            feature_array=np.vstack([base.feature_array, live.feature_array]),
            times=np.vstack([base.times, live.times]),
            formats=live.formats,
            device=live.device,
            precision=live.precision,
        )

    def train_candidate(self, *, force: bool = False) -> Optional[ModelRecord]:
        """Train a candidate from accumulated experience; install as shadow.

        Returns the new registry record, or ``None`` when fewer than
        ``min_train_rows`` qualifying rows are buffered (``force=True``
        raises :class:`AdaptiveError` instead, for the manual ops).
        """
        with self._lock:
            prod_model, prod_record = self._production()
            live = self.buffer.to_dataset(
                self.service.formats,
                device=prod_record.meta.get("device") or "live",
                precision=prod_record.meta.get("precision") or "single",
            )
            n_live = 0 if live is None else len(live)
            if live is None or n_live < self.min_train_rows:
                if force:
                    raise AdaptiveError(
                        f"not enough experience to train: {n_live} qualifying "
                        f"rows < min_train_rows={self.min_train_rows}"
                    )
                return None
            warm = (
                self.warm_start
                and prod_model.supports_warm_start
                and tuple(prod_model.formats_ or ()) == tuple(live.formats)
            )
            if warm:
                candidate = prod_model  # a fresh artifact load, not the
                candidate.warm_fit(live, **self.warm_kwargs)  # serving copy
            else:
                family = prod_record.meta.get("model_name")
                if family in MODEL_REGISTRY:
                    candidate = FormatSelector(
                        family, feature_set=prod_model.feature_set
                    )
                else:
                    candidate = FormatSelector(
                        ml_clone(prod_model.estimator),
                        feature_set=prod_model.feature_set,
                    )
                train = (
                    live if self.base_dataset is None
                    else self._concat(self.base_dataset, live)
                )
                candidate.fit(train)
            record = self.registry.save(
                candidate,
                self.model_name,
                extra_meta={
                    "trained_by": "adaptive",
                    "warm_start": bool(warm),
                    "parent_version": prod_record.version,
                    "n_experience_rows": n_live,
                },
            )
            self._shadow = _Shadow(candidate, record)
            self._shadow_cache.clear()
            self._shadow_choices.clear()
            self._rows_at_last_train = self.buffer.n_added
            self._drift_pending = False
            self.drift.reset()
            self._m_trainings.inc()
            return record

    # -- promotion / rollback ------------------------------------------------

    def promote(self, *, force: bool = False, reason: str = "auto") -> Dict:
        """Promote the shadow candidate to production.

        Gated by the :class:`PromotionPolicy` unless ``force`` (the
        manual override path).  Moves the registry alias, appends the
        audit record, hot-swaps the serving model, and retires the
        shadow.  Returns the audit record.
        """
        with self._lock:
            shadow = self._shadow
            if shadow is None:
                raise AdaptiveError("no shadow candidate to promote")
            board = shadow.scoreboard.snapshot()
            if not force:
                ok, why = self._evaluate_gate(board)
                if not ok:
                    raise AdaptiveError(f"promotion gate not met: {why}")
                reason = f"{reason}: {why}"
            audit = self.registry.promote(
                self.model_name,
                shadow.record.version,
                reason=reason,
                stats=board,
            )
            self.service.adopt_selector(shadow.model, shadow.record)
            self._shadow = None
            self._shadow_cache.clear()
            self._shadow_choices.clear()
            self._last_promotion_t = self._clock()
            self._m_promotions.inc()
            return audit.meta["promotion"]

    def adopt_version(self, version: str, *, reason: str = "manual") -> Dict:
        """Manually promote an explicit registry version and serve it."""
        with self._lock:
            model, record = self.registry.load(self.model_name, version)
            audit = self.registry.promote(
                self.model_name, record.version, reason=reason
            )
            self.service.adopt_selector(model, record)
            if self._shadow is not None and (
                self._shadow.record.version == record.version
            ):
                self._shadow = None
            self._last_promotion_t = self._clock()
            self._m_promotions.inc()
            return audit.meta["promotion"]

    def rollback(self, *, reason: str = "manual") -> Dict:
        """Revert production to the version it pointed at before the
        latest promotion, and serve it immediately."""
        with self._lock:
            previous = self.registry.rollback_target(self.model_name)
            if previous is None:
                raise AdaptiveError(
                    f"no previous production version of {self.model_name!r} "
                    "to roll back to"
                )
            model, record = self.registry.load(self.model_name, previous)
            audit = self.registry.promote(
                self.model_name, previous, action="rollback", reason=reason
            )
            self.service.adopt_selector(model, record)
            self._last_promotion_t = self._clock()
            self._m_rollbacks.inc()
            return audit.meta["promotion"]

    # -- introspection -------------------------------------------------------

    def status(self) -> Dict:
        """JSON-able loop state (the daemon's ``adaptive`` op payload)."""
        self._drain_shadow()
        with self._lock:
            shadow = self._shadow
            board = None
            if shadow is not None:
                board = shadow.scoreboard.snapshot()
                ok, why = self._evaluate_gate(board)
                board["gate"] = {"ok": ok, "reason": why}
            since = (
                None if self._last_promotion_t is None
                else self._clock() - self._last_promotion_t
            )
            return {
                "model": self.model_name,
                "production": self.registry.production_version(self.model_name),
                "auto": self.auto,
                "policy": {
                    "min_samples": self.policy.min_samples,
                    "min_improvement": self.policy.min_improvement,
                    "cooldown_s": self.policy.cooldown_s,
                },
                "buffer": {
                    "rows": len(self.buffer),
                    "added": self.buffer.n_added,
                    "skipped": self.n_rows_skipped,
                    "since_last_train": self._rows_since_train(),
                    "train_every": self.train_every,
                },
                "shadow": board,
                "trainings": self.n_trainings,
                "promotions": self.n_promotions,
                "rollbacks": self.n_rollbacks,
                "seconds_since_promotion": since,
                "drift": self.drift.snapshot(),
            }

