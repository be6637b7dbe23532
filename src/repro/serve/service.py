"""Online format-selection inference: :class:`SelectionService`.

The paper trains and evaluates its models offline; this module is the
deployment half of the lightweight-selection argument — the trained
models behind one request/response surface:

* **inputs** — a raw sparse matrix (features extracted via the one-pass
  :func:`repro.analysis.analyze_matrix`), a feature *dict*, or an
  already-ordered feature *vector*;
* **selection modes** — ``direct`` (the paper's Sec. V classifier),
  ``indirect`` (Sec. VII: argmin of predicted per-format times) and
  ``hybrid`` (keep the classifier's pick unless the regressor says it
  costs more than ``(1 + tolerance) ×`` the predicted best);
* **micro-batching** — :meth:`predict_batch` featurises and caches per
  item but runs each model **once** over the stacked miss rows;
* **caching** — bounded LRU feature and decision caches keyed on the
  matrix structure digest / vector bytes, so a resubmitted matrix skips
  both the O(nnz) scan and the model;
* **configurations** — every decision is a
  :class:`~repro.tuning.Configuration` (format plus kernel parameters)
  from the models' vocabulary of configuration keys;
  :meth:`Decision.to_dict` is its wire form, with the decision under
  ``config`` only;
* **online loop** — :meth:`record_feedback` ties observed execution
  times back to served decisions, updating regret telemetry.

All public methods are thread-safe: the LRU caches carry their own
internal locks, a service-wide lock guards id allocation, and model
predictions are pure numpy and reentrant — so one service instance can
back many concurrent server connections (see :mod:`repro.serve.server`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs, tuning
from ..analysis import analyze_matrix
from ..features import ALL_FEATURES
from ..formats import CSRMatrix, FORMAT_NAMES, SparseFormat
from ..gpu.batch import ProfileBatch
from ..gpu.cache import LRUCache
from .feedback import FeedbackLog
from .registry import ModelRegistry, feature_names
from .telemetry import ServiceTelemetry

__all__ = ["Decision", "SelectionService"]

#: Selection strategies accepted by :class:`SelectionService`.
MODES = ("direct", "indirect", "hybrid")


@dataclass(frozen=True)
class Decision:
    """One served configuration decision.

    ``chosen`` is the configuration *key* from the serving vocabulary
    (a bare format name for all-default configurations, ``"fmt?..."``
    otherwise); ``config`` is the same decision as a full
    :class:`~repro.tuning.Configuration`.
    """

    request_id: str
    chosen: str                             #: recommended configuration key
    chosen_index: int                       #: index into ``formats``
    formats: Tuple[str, ...]                #: configuration-key vocabulary
    mode: str                               #: strategy that produced it
    config: tuning.Configuration            #: ``chosen`` as a configuration
    predicted_times: Optional[Dict[str, float]] = None  #: regressor output
    direct_choice: Optional[str] = None     #: classifier pick (hybrid only)
    cached: bool = False                    #: served from the decision cache
    latency_ms: float = 0.0                 #: this request's share of batch
                                            #: time (cache hits pay only the
                                            #: overhead share, not model time)
    meta: Dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> Dict:
        """JSON-able view (what the daemon returns on the wire).

        The decision travels only as ``config``: the format, its
        resolved kernel parameters and the configuration key.
        """
        out = {
            "id": self.request_id,
            "config": self.config.as_dict(),
            "format_index": self.chosen_index,
            "mode": self.mode,
            "cached": self.cached,
            "latency_ms": self.latency_ms,
        }
        if self.predicted_times is not None:
            out["predicted_times"] = self.predicted_times
        if self.direct_choice is not None:
            out["direct_choice"] = self.direct_choice
        return out


class SelectionService:
    """Serve format decisions from fitted selection/prediction models.

    Parameters
    ----------
    selector:
        Fitted :class:`~repro.core.selector.FormatSelector` (required
        for ``direct`` and ``hybrid`` modes).
    predictor:
        Fitted :class:`~repro.core.predictor.PerformancePredictor`
        (required for ``indirect`` and ``hybrid`` modes).
    mode:
        ``"direct"``, ``"indirect"`` or ``"hybrid"``.
    simulator:
        Optional :class:`~repro.gpu.SpMVExecutor` backend.  When set,
        the per-format times of ``indirect``/``hybrid`` decisions for
        *matrix* inputs come from one vectorised
        :meth:`~repro.gpu.SpMVExecutor.estimate_batch` sweep over the
        whole miss batch (infeasible formats masked to ``inf``) instead
        of the regressor; dict/vector inputs — which carry no structural
        profile — still require a ``predictor``.  A simulator alone can
        back ``indirect`` mode.
    tolerance:
        Hybrid-mode slack: the classifier's pick survives while its
        predicted time is ≤ ``(1 + tolerance) ×`` the predicted best.
    energy_weight:
        Multi-objective scalarisation weight ``w ∈ [0, 1]`` applied to
        simulator-backed decisions: candidates are ranked by
        ``seconds^(1-w) · joules^w`` (see :func:`repro.tuning.scalarize`
        and :func:`repro.tuning.energy_joules`).  ``0`` (default) ranks
        purely by time — bit-identical to the pre-energy behaviour;
        ``1`` ranks purely by the energy proxy.  With ``w > 0`` the
        ``predicted_times`` on simulator decisions are the scalarised
        scores, not raw seconds.
    feature_cache_size / decision_cache_size:
        LRU bounds (``None`` = unbounded, ``0`` disables the cache).
    history:
        Bound on the recent-decision window :meth:`record_feedback`
        resolves request ids against, and on the feedback log (whose
        window the regret statistics of :meth:`stats` cover).

    Every entry of the models' vocabulary must be a configuration key
    (:meth:`repro.tuning.Configuration.from_key`); the constructor
    raises ``ValueError`` naming the first entry that is not.
    """

    def __init__(
        self,
        selector=None,
        predictor=None,
        *,
        simulator=None,
        mode: str = "direct",
        tolerance: float = 0.1,
        energy_weight: float = 0.0,
        feature_cache_size: Optional[int] = 512,
        decision_cache_size: Optional[int] = 512,
        history: int = 4096,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if mode in ("direct", "hybrid") and selector is None:
            raise ValueError(f"{mode!r} mode requires a selector")
        if mode in ("indirect", "hybrid") and predictor is None and simulator is None:
            raise ValueError(f"{mode!r} mode requires a predictor or a simulator")
        if tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if not 0.0 <= float(energy_weight) <= 1.0:
            raise ValueError(
                f"energy_weight must be in [0, 1], got {energy_weight}"
            )
        self.selector = selector
        self.predictor = predictor
        self.simulator = simulator
        self.mode = mode
        self.tolerance = float(tolerance)
        self.energy_weight = float(energy_weight)

        self.formats = self._resolve_formats()
        # Parsed view of the vocabulary: the Configuration carried on
        # each Decision.
        configs = []
        for key in self.formats:
            try:
                configs.append(tuning.Configuration.from_key(key))
            except tuning.ConfigError as exc:
                raise ValueError(
                    f"vocabulary entry {key!r} is not a configuration key: {exc}"
                ) from exc
        self._format_configs = tuple(configs)
        self._sel_names = feature_names(selector.feature_set) if selector else None
        self._pred_names = feature_names(predictor.feature_set) if predictor else None

        self.feedback = FeedbackLog(maxlen=history)
        self.telemetry = ServiceTelemetry(self.feedback)
        #: Registry provenance (``{"selector": ModelRecord, ...}``) —
        #: filled by :meth:`from_registry`, empty for in-process models.
        self.records: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._feature_cache = (
            LRUCache(feature_cache_size) if feature_cache_size != 0 else None
        )
        self._decision_cache = (
            LRUCache(decision_cache_size) if decision_cache_size != 0 else None
        )
        self._recent = LRUCache(history)
        self._next_id = 0
        #: Bumped by every selector swap and part of every decision key,
        #: so a decision an in-flight batch computes with the old model
        #: can never be served from the cache after the swap.
        self._generation = 0
        #: Attached :class:`~repro.serve.adaptive.AdaptiveController`
        #: (``None`` until :meth:`attach_adaptive`).
        self._adaptive = None

    # -- construction ------------------------------------------------------

    def _resolve_formats(self) -> Tuple[str, ...]:
        fmts = []
        for model in (self.selector, self.predictor):
            if model is None:
                continue
            f = getattr(model, "formats_", None)
            if f is None:
                raise ValueError(
                    f"{type(model).__name__} must be dataset-fitted "
                    "(format vocabulary unknown)"
                )
            fmts.append(tuple(f))
        if len(fmts) == 2 and fmts[0] != fmts[1]:
            raise ValueError(
                f"selector formats {fmts[0]} != predictor formats {fmts[1]}"
            )
        if not fmts:
            # Simulator-only service: the kernel models cover the
            # paper's full format vocabulary.
            return tuple(FORMAT_NAMES)
        return fmts[0]

    @classmethod
    def from_registry(
        cls,
        registry,
        selector: Optional[str] = None,
        predictor: Optional[str] = None,
        *,
        selector_version: Optional[str] = None,
        predictor_version: Optional[str] = None,
        **kwargs,
    ) -> "SelectionService":
        """Build a service from registry model names.

        ``registry`` is a :class:`~repro.serve.registry.ModelRegistry`
        or a path to one.  Versions default to each model's production
        alias (falling back to latest).  Extra ``kwargs`` go to the
        constructor; ``mode`` defaults to what the loaded models allow
        (``hybrid`` if both, else ``direct``/``indirect``).
        """
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        if selector is None and predictor is None:
            raise ValueError("need at least one of selector/predictor")
        sel = pred = None
        records = {}
        if selector is not None:
            sel, records["selector"] = registry.load(selector, selector_version)
        if predictor is not None:
            pred, records["predictor"] = registry.load(predictor, predictor_version)
        if "mode" not in kwargs:
            kwargs["mode"] = (
                "hybrid" if sel is not None and pred is not None
                else "direct" if sel is not None else "indirect"
            )
        service = cls(sel, pred, **kwargs)
        service.records = records
        return service

    # -- adaptive loop -----------------------------------------------------

    @property
    def adaptive(self):
        """The attached adaptive controller, or ``None``."""
        return self._adaptive

    def attach_adaptive(self, controller) -> None:
        """Attach an :class:`~repro.serve.adaptive.AdaptiveController`.

        Once attached, every served decision and feedback event flows
        into the controller's ``observe_batch`` / ``observe_feedback``
        hooks (off the response path; hook errors are counted, never
        raised).  Normally called by the controller's own constructor.
        """
        self._adaptive = controller

    def detach_adaptive(self) -> None:
        self._adaptive = None

    def adopt_selector(self, selector, record=None) -> None:
        """Hot-swap the serving selector (the promotion fast path).

        The new selector must be dataset-fitted on the same format
        vocabulary the service resolved at construction.  Cached
        decisions belong to the old model: they are dropped, and later
        decisions are keyed by the swap's new generation, so a batch in
        flight across the swap cannot cache an old-model decision where
        new lookups find it.  Feature caches and telemetry survive.
        """
        fmts = getattr(selector, "formats_", None)
        if fmts is None:
            raise ValueError("adopted selector must be dataset-fitted")
        if tuple(fmts) != tuple(self.formats):
            raise ValueError(
                f"adopted selector formats {tuple(fmts)} != serving "
                f"vocabulary {tuple(self.formats)}"
            )
        with self._lock:
            self.selector = selector
            self._sel_names = feature_names(selector.feature_set)
            self._generation += 1
            if record is not None:
                self.records["selector"] = record
        if self._decision_cache is not None:
            self._decision_cache.clear()

    # -- featurisation -----------------------------------------------------

    def _featurize(self, item):
        """Normalise one request item.

        Returns ``(names, vector, cache_key, hit, profile)`` — the
        structural :class:`~repro.gpu.MatrixProfile` is only available
        for matrix inputs (``None`` otherwise); the simulator backend
        needs it, and :func:`repro.analysis.analyze_matrix` produces it
        from the same shared scan as the features.

        Accepted items: a sparse matrix (any :class:`SparseFormat` /
        :class:`CSRMatrix`), a feature dict, or a 1-D vector ordered
        either as the full 17 canonical features or as the active
        models' (shared) feature set.
        """
        if isinstance(item, (SparseFormat, CSRMatrix)):
            from ..gpu.profile import _structure_digest

            csr = item if isinstance(item, CSRMatrix) else CSRMatrix.from_coo(item.to_coo())
            # The digest is a cheap O(nnz) hash of the structure — much
            # cheaper than the full analysis it lets repeats skip.
            key = _structure_digest(csr)
            if self._feature_cache is not None:
                cached = self._feature_cache.get(key)
                if cached is not None:
                    return cached[0], cached[1], key, True, cached[2]
            analysis = analyze_matrix(csr)
            vec = np.array(
                [analysis.features[n] for n in ALL_FEATURES], dtype=np.float64
            )
            if self._feature_cache is not None:
                self._feature_cache.put(key, (tuple(ALL_FEATURES), vec, analysis.profile))
            return tuple(ALL_FEATURES), vec, key, False, analysis.profile

        if isinstance(item, Mapping):
            missing = [n for n in ALL_FEATURES if n not in item]
            if missing:
                raise ValueError(f"feature dict is missing {missing}")
            vec = np.array([float(item[n]) for n in ALL_FEATURES], dtype=np.float64)
            return tuple(ALL_FEATURES), vec, ("d", vec.tobytes()), False, None

        vec = np.asarray(item, dtype=np.float64)
        if vec.ndim != 1:
            raise ValueError(
                f"expected a matrix, feature dict or 1-D vector; "
                f"got array of shape {vec.shape}"
            )
        names = self._vector_names(vec.size)
        return names, vec, ("v", names, vec.tobytes()), False, None

    def _vector_names(self, size: int) -> Tuple[str, ...]:
        """Feature-name order implied by a raw vector's length."""
        if size == len(ALL_FEATURES):
            return tuple(ALL_FEATURES)
        active = [n for n in (self._sel_names, self._pred_names) if n is not None]
        shared = active[0] if all(a == active[0] for a in active) else None
        if shared is not None and size == len(shared):
            return shared
        expect = sorted({len(ALL_FEATURES)} | ({len(shared)} if shared else set()))
        raise ValueError(
            f"cannot interpret a {size}-feature vector; expected one of "
            f"{expect} features (canonical 17-feature order, or the active "
            "models' shared feature set)"
        )

    @staticmethod
    def _project(X: np.ndarray, names: Tuple[str, ...], want: Tuple[str, ...]) -> np.ndarray:
        if names == want:
            return X
        try:
            idx = [names.index(n) for n in want]
        except ValueError as exc:
            raise ValueError(
                f"request features {names} do not cover model features {want}"
            ) from exc
        return X[:, idx]

    # -- selection ---------------------------------------------------------

    def _simulate_times(self, profiles: Sequence) -> np.ndarray:
        """Per-configuration scores from one batched simulator sweep.

        All N profiles × F configurations are estimated in a single
        :meth:`~repro.gpu.SpMVExecutor.sweep`, which also returns which
        cells the device cannot run (OOM, padding blow-up, width-cap
        violations, degenerate kernels); those are masked to ``inf``
        column by column, so argmin/hybrid logic avoids them even when
        the vocabulary repeats a key.  With ``energy_weight > 0`` the
        returned scores blend time with the energy proxy via
        :func:`repro.tuning.scalarize` (still ``inf`` where infeasible).
        """
        ex = self.simulator
        cost, failed = ex.sweep(ProfileBatch.from_profiles(profiles), self.formats)
        if self.energy_weight > 0.0:
            energy = tuning.energy_joules(cost, ex.device)
            scores = tuning.scalarize(cost.seconds, energy, self.energy_weight)
        else:
            scores = cost.seconds.copy()
        scores[failed != 0] = np.inf
        scores[~np.isfinite(scores)] = np.inf
        return scores

    def _decide_batch(
        self,
        X: np.ndarray,
        names: Tuple[str, ...],
        profiles: Optional[Sequence] = None,
    ) -> List[Tuple[int, Optional[np.ndarray], Optional[int]]]:
        """Run the configured strategy over a stacked miss batch.

        ``profiles`` (parallel to the rows of ``X``) routes the
        indirect/hybrid time estimates through the simulator backend;
        ``None`` uses the regressor.  Returns per row:
        ``(chosen_index, predicted_times|None, direct_index|None)``.
        """
        n = X.shape[0]
        direct = None
        times = None
        if self.mode in ("direct", "hybrid"):
            # Read the selector once: adopt_selector may hot-swap it
            # between (never during) batch decisions.
            sel = self.selector
            direct = sel.predict(
                self._project(X, names, feature_names(sel.feature_set))
            )
        if self.mode in ("indirect", "hybrid"):
            if profiles is not None:
                times = self._simulate_times(profiles)
            else:
                times = self.predictor.predict(
                    self._project(X, names, self._pred_names)
                )
        out = []
        for i in range(n):
            t_i = times[i] if times is not None else None
            if self.mode == "direct":
                out.append((int(direct[i]), None, None))
            elif self.mode == "indirect":
                out.append((int(np.argmin(t_i)), t_i, None))
            else:
                d = int(direct[i])
                best = int(np.argmin(t_i))
                keep = t_i[d] <= (1.0 + self.tolerance) * t_i[best]
                out.append((d if keep else best, t_i, d))
        return out

    # -- public API --------------------------------------------------------

    def predict(self, item, *, request_id: Optional[str] = None) -> Decision:
        """Serve one decision (see :meth:`predict_batch` for inputs)."""
        return self.predict_batch([item], request_ids=[request_id])[0]

    def predict_batch(
        self,
        items: Sequence,
        *,
        request_ids: Optional[Sequence[Optional[str]]] = None,
    ) -> List[Decision]:
        """Serve one decision per item, batching model work.

        Items may mix matrices, feature dicts and 1-D vectors.  Feature
        extraction is cached per matrix structure; decisions are cached
        per (features, vocabulary, mode, tolerance, energy weight) so
        configurations sharing a base format (e.g. ``csr`` and
        ``csr?lanes=8`` vocabularies) never alias; all cache misses of compatible
        feature order run through each model in **one** vectorised call,
        with duplicate decision keys collapsed to a single model row (a
        cross-client micro-batch often carries the same hot matrix more
        than once).
        """
        t0 = time.perf_counter()
        if request_ids is None:
            request_ids = [None] * len(items)
        if len(request_ids) != len(items):
            raise ValueError("request_ids length mismatch")

        needs_times = self.mode in ("indirect", "hybrid")
        generation = self._generation
        f_hits = f_misses = d_hits = d_misses = 0
        prepared = []  # (names, vec, decision_key, cached_payload|None, profile)
        for item in items:
            names, vec, fkey, f_hit, prof = self._featurize(item)
            f_hits += f_hit
            f_misses += not f_hit
            use_sim = needs_times and self.simulator is not None and prof is not None
            if needs_times and not use_sim and self.predictor is None:
                raise ValueError(
                    f"{self.mode!r} mode with only a simulator backend "
                    "requires matrix inputs (dict/vector items carry no "
                    "structural profile)"
                )
            if use_sim:
                # Simulator decisions depend on the full structural
                # profile (not just the 17 features) and on the backend
                # device/precision — key them by structure digest.
                # The vocabulary is part of the key: two configurations
                # of one base format (e.g. "csr" vs "csr?lanes=8") must
                # never alias a cached decision, and neither may two
                # services whose vocabularies differ only in parameters.
                dkey = (
                    "dec-sim",
                    generation,
                    prof.digest,
                    self.formats,
                    self.mode,
                    self.tolerance,
                    self.energy_weight,
                    self.simulator.device.name,
                    self.simulator.precision,
                )
            else:
                prof = None  # regressor path: profile is irrelevant
                dkey = (
                    "dec",
                    generation,
                    names,
                    vec.tobytes(),
                    self.formats,
                    self.mode,
                    self.tolerance,
                    self.energy_weight,
                )
            payload = (
                self._decision_cache.get(dkey)
                if self._decision_cache is not None
                else None
            )
            d_hits += payload is not None
            d_misses += payload is None
            prepared.append((names, vec, dkey, payload, prof))

        # One vectorised model call per distinct (feature order, backend)
        # group, over the *unique* decision keys only — duplicates share
        # one model row.
        miss_items: Dict[Tuple, List[int]] = {}   # dkey -> item indices
        miss_keys: Dict[Tuple, List[Tuple]] = {}  # (order, sim?) -> keys
        for i, (names, _, dkey, payload, prof) in enumerate(prepared):
            if payload is None:
                rows = miss_items.setdefault(dkey, [])
                if not rows:
                    miss_keys.setdefault((names, prof is not None), []).append(dkey)
                rows.append(i)
        t_model0 = time.perf_counter()
        results: Dict[int, Tuple[int, Optional[np.ndarray], Optional[int]]] = {}
        for (names, use_sim), keys in miss_keys.items():
            first_rows = [prepared[miss_items[k][0]] for k in keys]
            X = np.stack([row[1] for row in first_rows])
            profiles = [row[4] for row in first_rows] if use_sim else None
            for dkey, res in zip(keys, self._decide_batch(X, names, profiles)):
                for i in miss_items[dkey]:
                    results[i] = res
                if self._decision_cache is not None:
                    self._decision_cache.put(dkey, res)
        t_model = time.perf_counter() - t_model0

        latency = time.perf_counter() - t0
        # Latency attribution: every request pays its share of the batch
        # overhead (featurisation, cache probes); only cache-miss rows
        # carry the model time.
        n_miss_items = sum(len(rows) for rows in miss_items.values())
        overhead_ms = 1e3 * (latency - t_model) / max(1, len(items))
        model_ms = 1e3 * t_model / max(1, n_miss_items)
        decisions = []
        with self._lock:
            ids = []
            for rid in request_ids:
                if rid is None:
                    rid = f"r{self._next_id:06d}"
                    self._next_id += 1
                ids.append(str(rid))
        for i, ((names, vec, dkey, payload, _prof), rid) in enumerate(zip(prepared, ids)):
            cached = payload is not None
            chosen_idx, times, direct_idx = payload if cached else results[i]
            decision = Decision(
                request_id=rid,
                chosen=self.formats[chosen_idx],
                chosen_index=chosen_idx,
                formats=self.formats,
                mode=self.mode,
                predicted_times=(
                    None if times is None
                    else {f: float(t) for f, t in zip(self.formats, times)}
                ),
                direct_choice=(
                    None if direct_idx is None else self.formats[direct_idx]
                ),
                cached=cached,
                latency_ms=overhead_ms if cached else overhead_ms + model_ms,
                config=self._format_configs[chosen_idx],
            )
            decisions.append(decision)
            self._recent.put(rid, decision)
        if obs.enabled():
            # Per-decision latency histogram on the shared telemetry
            # spine (disabled by default — the flag read is the only
            # cost on the hot path).
            for d in decisions:
                obs.observe("serve.predict_ms", d.latency_ms)
        self.telemetry.record_batch(
            len(items),
            latency,
            feature_hits=f_hits,
            feature_misses=f_misses,
            decision_hits=d_hits,
            decision_misses=d_misses,
        )
        adaptive = self._adaptive
        if adaptive is not None:
            # Off the response path: shadow scoring + feature retention
            # happen after latencies are stamped; hook errors are
            # counted by the controller, never raised here.
            adaptive.observe_batch(
                [
                    (d.request_id, row[0], row[1], d.chosen)
                    for row, d in zip(prepared, decisions)
                ]
            )
        return decisions

    def record_feedback(
        self,
        request_id: str,
        observed: Mapping[str, float],
        *,
        chosen: Optional[Union[str, Mapping, tuning.Configuration]] = None,
    ):
        """Report observed per-configuration execution times for a decision.

        ``request_id`` normally names a recent decision (the service
        looks up what it chose); pass ``chosen`` explicitly for
        decisions that aged out of the window.  ``chosen`` accepts a
        :class:`~repro.tuning.Configuration`, a configuration mapping
        (``{"format": ..., "params": ...}``), or a configuration key (a
        bare format name is its default configuration's key); anything
        else raises :class:`~repro.tuning.ConfigError`.  Returns the
        :class:`~repro.serve.feedback.FeedbackEvent`.
        """
        if chosen is None:
            decision = self._recent.get(request_id)
            if decision is None:
                raise KeyError(
                    f"unknown request id {request_id!r}; pass chosen= for "
                    "decisions outside the recent window"
                )
            chosen = decision.chosen
        else:
            chosen = tuning.coerce(chosen).key
        event = self.feedback.record(str(request_id), chosen, observed)
        self.telemetry.record_regret(event.regret)
        adaptive = self._adaptive
        if adaptive is not None:
            adaptive.observe_feedback(event)
        return event

    def stats(self) -> Dict:
        """Telemetry snapshot plus model/config description."""
        snap = self.telemetry.snapshot()
        snap["service"] = {
            "mode": self.mode,
            "tolerance": self.tolerance,
            "energy_weight": self.energy_weight,
            "formats": list(self.formats),
            "selector": getattr(self.selector, "model_name", None),
            "predictor": getattr(self.predictor, "model_name", None),
            "simulator": (
                None if self.simulator is None
                else {
                    "device": self.simulator.device.name,
                    "precision": self.simulator.precision,
                }
            ),
            # Registry provenance, so network clients can see which
            # model build served them (empty for in-process models).
            "models": {
                kind: {"name": rec.name, "version": rec.version}
                for kind, rec in self.records.items()
            },
            "feedback": {
                "optimal_distribution": self.feedback.optimal_distribution(),
                "chosen_distribution": self.feedback.chosen_distribution(),
                "mean_regret": self.feedback.mean_regret(),
            },
        }
        if self._adaptive is not None:
            snap["service"]["adaptive"] = self._adaptive.status()
        return snap

    def clear_caches(self) -> None:
        """Drop cached features and decisions (telemetry is kept)."""
        if self._feature_cache is not None:
            self._feature_cache.clear()
        if self._decision_cache is not None:
            self._decision_cache.clear()
