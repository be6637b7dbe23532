"""Confidence-gated hybrid selection (SMAT-style, Li et al.).

The paper's related work (Sec. VII, [10]) describes SMAT's decision
rule: the model keeps a confidence value per prediction, and when the
confidence is *below* a threshold it actually *executes the candidate
formats* and decides from measurements.  This module implements that
hybrid:

* confident predictions cost one feature pass + inference;
* unconfident ones fall back to probing the model's top-``k`` candidate
  formats on the (simulated) device and taking the measured winner.

The ablation bench sweeps the threshold to show the accuracy/probing
trade-off the SMAT design exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..formats import SparseFormat
from ..gpu import SpMVExecutor
from .dataset import SpMVDataset
from .sampling import probe_seconds
from .selector import FormatSelector

__all__ = ["ConfidenceSelector", "ConfidenceDecision"]


@dataclass(frozen=True)
class ConfidenceDecision:
    """Outcome of one confidence-gated selection."""

    fmt: str            #: chosen format
    confidence: float   #: model probability of its top class
    probed: bool        #: True when the fallback measurement ran
    probe_seconds: float  #: simulated device time spent probing


class ConfidenceSelector:
    """ML selector with measurement fallback below a confidence threshold.

    Parameters
    ----------
    selector:
        A fitted (or to-be-fitted) :class:`FormatSelector` whose
        estimator exposes ``predict_proba`` (decision tree, MLP,
        XGBoost and their pipelines all do; SVC does not).
    executor:
        Device used for fallback probes.
    threshold:
        Minimum top-class probability to trust the model outright.
    top_k:
        Number of highest-probability formats probed on fallback.
    probe_reps:
        Benchmark repetitions per probed format.
    """

    def __init__(
        self,
        selector: FormatSelector,
        executor: SpMVExecutor,
        *,
        threshold: float = 0.6,
        top_k: int = 2,
        probe_reps: int = 3,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.selector = selector
        self.executor = executor
        self.threshold = float(threshold)
        self.top_k = int(top_k)
        self.probe_reps = int(probe_reps)

    # -- fitting -----------------------------------------------------------

    def fit(self, data: SpMVDataset) -> "ConfidenceSelector":
        self.selector.fit(data)
        return self

    # -- selection -----------------------------------------------------------

    def _proba(self, X: np.ndarray) -> np.ndarray:
        est = self.selector.estimator
        try:
            return est.predict_proba(np.asarray(X))
        except AttributeError as exc:
            # Either the estimator itself, or a pipeline's final step
            # (e.g. SVC), lacks probability output.
            raise TypeError(
                f"{type(est).__name__} exposes no usable predict_proba; use a "
                "probabilistic model (tree/MLP/XGBoost)"
            ) from exc

    def decide(self, matrix: SparseFormat, features: np.ndarray) -> ConfidenceDecision:
        """Confidence-gated decision for one matrix.

        Parameters
        ----------
        matrix:
            The matrix itself (needed only if the fallback probe runs).
        features:
            Its feature vector in the selector's feature set.
        """
        proba = self._proba(np.asarray(features)[None, :])[0]
        formats = self.selector.formats_
        if formats is None:
            raise RuntimeError("selector must be fitted on a dataset")
        order = np.argsort(proba)[::-1]
        confidence = float(proba[order[0]])
        if confidence >= self.threshold:
            return ConfidenceDecision(
                fmt=formats[order[0]],
                confidence=confidence,
                probed=False,
                probe_seconds=0.0,
            )
        # Fallback: measure the top-k candidates, keep the winner.
        candidates = [formats[i] for i in order[: self.top_k]]
        best_fmt, best_time, spent = None, np.inf, 0.0
        probe = probe_seconds(self.executor, matrix, candidates, self.probe_reps)
        for fmt in candidates:
            t = probe[fmt]
            if t is None:
                continue
            spent += t * self.probe_reps
            if t < best_time:
                best_fmt, best_time = fmt, t
        if best_fmt is None:  # every candidate failed; trust the model
            best_fmt = formats[order[0]]
        return ConfidenceDecision(
            fmt=best_fmt, confidence=confidence, probed=True, probe_seconds=spent
        )

    def evaluate(
        self, data: SpMVDataset, matrices: Dict[str, SparseFormat]
    ) -> Dict[str, float]:
        """Accuracy / probe-rate / probe-cost over a labeled dataset.

        ``matrices`` maps dataset names to the actual matrices (needed
        for the probes).
        """
        X = data.X(self.selector.feature_set)
        fmt_index = {f: i for i, f in enumerate(data.formats)}
        hits = 0
        probed = 0
        probe_seconds = 0.0
        labels = data.labels
        for i, name in enumerate(data.names):
            decision = self.decide(matrices[name], X[i])
            hits += fmt_index[decision.fmt] == labels[i]
            probed += decision.probed
            probe_seconds += decision.probe_seconds
        n = len(data)
        return {
            "accuracy": hits / n,
            "probe_rate": probed / n,
            "probe_seconds_total": probe_seconds,
        }
