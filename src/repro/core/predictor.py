"""SpMV performance modeling: execution-time regression (paper Sec. VI).

Two modes, matching the paper's two experiments:

* **joint** (Sec. VI-A) — a single regressor over all formats, the
  format being an extra one-hot input block; one model predicts the
  time of any (matrix, format) pair.
* **per-format** (Sec. VI-B) — an independent regressor per format.

Targets are regressed in log-space (execution times span six decades)
and exponentiated on prediction; RME is always computed in linear
space, as the paper defines it.

Both modes treat the dataset's format vocabulary as opaque column
names, so they extend unchanged to the joint format+parameter space of
:mod:`repro.tuning`: train on a campaign labeled over
``tuning.tuned_space()`` and each configuration key
(``"csr?lanes=8"``) gets its own one-hot slot (joint mode) or
regression head (per-format mode).
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

import numpy as np

from ..ml import (
    BaseEstimator,
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    Log1pTransformer,
    MLPEnsembleRegressor,
    MLPRegressor,
    Pipeline,
    StandardScaler,
    SVR,
    clone,
    relative_mean_error,
)
from .dataset import SpMVDataset
from .selector import _as_batch

__all__ = ["PerformancePredictor", "REGRESSOR_REGISTRY"]


def _scaled(est: BaseEstimator) -> Pipeline:
    return Pipeline(
        [("log", Log1pTransformer()), ("scale", StandardScaler()), ("model", est)]
    )


def _make_mlp(**kw) -> BaseEstimator:
    return _scaled(
        MLPRegressor(
            **{
                "hidden_layer_sizes": (96, 48, 16),
                "batch_size": 16,
                "n_epochs": 200,
                **kw,
            }
        )
    )


def _make_mlp_ensemble(**kw) -> BaseEstimator:
    return _scaled(
        MLPEnsembleRegressor(
            **{
                "n_members": 5,
                "hidden_layer_sizes": (96, 48, 16),
                "batch_size": 16,
                "n_epochs": 150,
                **kw,
            }
        )
    )


def _make_xgboost(**kw) -> BaseEstimator:
    return GradientBoostingRegressor(
        **{"n_estimators": 200, "max_depth": 6, "learning_rate": 0.1, **kw}
    )


def _make_tree(**kw) -> BaseEstimator:
    return DecisionTreeRegressor(**{"max_depth": 12, **kw})


def _make_svr(**kw) -> BaseEstimator:
    return _scaled(SVR(**{"C": 100.0, "gamma": 0.1, "epsilon": 0.01, "n_epochs": 80, **kw}))


#: Regressor factories; ``"mlp"`` and ``"mlp_ensemble"`` are the paper's
#: Sec. VI models, the rest support the ablation benches.
REGRESSOR_REGISTRY = {
    "mlp": _make_mlp,
    "mlp_ensemble": _make_mlp_ensemble,
    "xgboost": _make_xgboost,
    "decision_tree": _make_tree,
    "svr": _make_svr,
}

#: Floor (seconds) protecting the log transform from degenerate inputs.
_TIME_FLOOR = 1e-9


class PerformancePredictor:
    """Execution-time regressor over one feature set.

    Parameters
    ----------
    model:
        :data:`REGRESSOR_REGISTRY` key or estimator instance.
    feature_set:
        Feature subset (paper Figs. 6–7 sweep ``set1``/``set12``/
        ``set123``/``imp``).
    mode:
        ``"joint"`` (one model, one-hot format input) or
        ``"per_format"`` (independent model per format).
    **model_kwargs:
        Overrides forwarded to the factory.
    """

    def __init__(
        self,
        model: Union[str, BaseEstimator] = "mlp_ensemble",
        *,
        feature_set: Union[str, Sequence[str]] = "set123",
        mode: str = "joint",
        **model_kwargs,
    ) -> None:
        if mode not in ("joint", "per_format"):
            raise ValueError("mode must be 'joint' or 'per_format'")
        self.mode = mode
        self.feature_set = feature_set
        if isinstance(model, str):
            try:
                self._factory = lambda m=model, kw=model_kwargs: REGRESSOR_REGISTRY[m](**kw)
            except KeyError:  # pragma: no cover - checked below
                raise
            if model not in REGRESSOR_REGISTRY:
                raise ValueError(
                    f"unknown model {model!r}; expected one of {sorted(REGRESSOR_REGISTRY)}"
                )
            self.model_name = model
        else:
            template = model
            self._factory = lambda: clone(template)
            self.model_name = type(model).__name__

    # -- encoding -------------------------------------------------------------

    def _joint_X(self, X: np.ndarray, fmt_idx: np.ndarray, n_formats: int) -> np.ndarray:
        onehot = np.zeros((X.shape[0], n_formats))
        onehot[np.arange(X.shape[0]), fmt_idx] = 1.0
        return np.hstack([X, onehot])

    # -- fitting ----------------------------------------------------------------

    def fit(self, data: SpMVDataset) -> "PerformancePredictor":
        """Fit on every (matrix, format) pair of the dataset."""
        self.formats_ = data.formats
        X = data.X(self.feature_set)
        T = np.maximum(data.times, _TIME_FLOOR)
        n, K = T.shape
        if self.mode == "joint":
            rows = np.repeat(np.arange(n), K)
            fmts = np.tile(np.arange(K), n)
            Xj = self._joint_X(X[rows], fmts, K)
            yj = np.log(T[rows, fmts])
            self.model_ = self._factory()
            self.model_.fit(Xj, yj)
        else:
            self.models_ = {}
            for k, fmt in enumerate(self.formats_):
                est = self._factory()
                est.fit(X, np.log(T[:, k]))
                self.models_[fmt] = est
        return self

    # -- prediction -----------------------------------------------------------------

    def predict(self, data: Union[SpMVDataset, np.ndarray]) -> np.ndarray:
        """Predicted execution seconds, shape ``(n_samples, n_formats)``.

        A single 1-D feature vector is treated as a one-row batch.
        """
        X = data.X(self.feature_set) if isinstance(data, SpMVDataset) else _as_batch(data)
        n = X.shape[0]
        K = len(self.formats_)
        out = np.empty((n, K))
        if self.mode == "joint":
            for k in range(K):
                Xk = self._joint_X(X, np.full(n, k), K)
                out[:, k] = np.exp(self.model_.predict(Xk))
        else:
            for k, fmt in enumerate(self.formats_):
                out[:, k] = np.exp(self.models_[fmt].predict(X))
        return out

    def predict_best(self, data: Union[SpMVDataset, np.ndarray]) -> np.ndarray:
        """Format index with minimum *predicted* time per sample."""
        return np.argmin(self.predict(data), axis=1)

    # -- evaluation ---------------------------------------------------------------------

    def rme(self, data: SpMVDataset) -> float:
        """Overall RME across every (matrix, format) pair (Sec. VI-A)."""
        pred = self.predict(data).ravel()
        meas = np.maximum(data.times, _TIME_FLOOR).ravel()
        return relative_mean_error(meas, pred)

    def rme_per_format(self, data: SpMVDataset) -> Dict[str, float]:
        """RME of each format separately (Sec. VI-B / Fig. 7)."""
        pred = self.predict(data)
        meas = np.maximum(data.times, _TIME_FLOOR)
        return {
            fmt: relative_mean_error(meas[:, k], pred[:, k])
            for k, fmt in enumerate(self.formats_)
        }

    # -- the stable estimator surface --------------------------------------

    def get_params(self) -> dict:
        """Constructor arguments as a dict (the estimator protocol)."""
        return {
            "model": self.model_name,
            "feature_set": self.feature_set,
            "mode": self.mode,
        }

    def save(self, path) -> None:
        """Serialise this fitted predictor to one ``.npz`` artifact.

        Same payload shape as the versioned model registry
        (:mod:`repro.serve.registry`) minus the metadata sidecar;
        :meth:`load` reads it back bit-identically.
        """
        from ..ml.serialize import save_payload

        save_payload({"kind": "predictor", "wrapper": self.get_state()}, path)

    @classmethod
    def load(cls, path) -> "PerformancePredictor":
        """Load a predictor saved by :meth:`save`."""
        from ..ml.serialize import SerializationError, load_payload

        payload = load_payload(path)
        if not isinstance(payload, dict) or payload.get("kind") != "predictor":
            raise SerializationError(
                f"artifact {path} does not hold a PerformancePredictor"
            )
        return cls.from_state(payload["wrapper"])

    # -- persistence (model-registry support) ------------------------------

    def get_state(self) -> dict:
        """Fitted state for the :mod:`repro.serve` registry codec."""
        state = {
            "model_name": self.model_name,
            "feature_set": self.feature_set,
            "mode": self.mode,
            "formats": list(self.formats_),
        }
        if self.mode == "joint":
            state["model"] = self.model_
        else:
            state["models"] = dict(self.models_)
        return state

    @classmethod
    def from_state(cls, state: dict) -> "PerformancePredictor":
        """Rebuild a fitted predictor from :meth:`get_state` output."""
        fs = state["feature_set"]
        feature_set = fs if isinstance(fs, str) else tuple(fs)
        if state["model_name"] in REGRESSOR_REGISTRY:
            pred = cls(state["model_name"], feature_set=feature_set,
                       mode=state["mode"])
        else:
            pred = cls.__new__(cls)
            pred.model_name = state["model_name"]
            pred.feature_set = feature_set
            pred.mode = state["mode"]
            # Custom estimator instances lose their factory across the
            # artifact boundary; a re-fit needs a fresh predictor.
            def _no_factory():
                raise RuntimeError(
                    "predictor was restored from an artifact with a custom "
                    "estimator; construct a new PerformancePredictor to re-fit"
                )
            pred._factory = _no_factory
        pred.formats_ = tuple(state["formats"])
        if state["mode"] == "joint":
            pred.model_ = state["model"]
        else:
            pred.models_ = dict(state["models"])
        return pred
