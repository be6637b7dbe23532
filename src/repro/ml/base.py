"""Estimator base machinery for the pure-numpy ML stack.

A deliberately small re-implementation of the scikit-learn estimator
protocol — ``get_params`` / ``set_params`` / ``clone`` — sufficient for
the cross-validation and grid-search drivers in
:mod:`repro.ml.model_selection`.  Hyper-parameters are, by convention,
exactly the keyword arguments of ``__init__``; fitted state lives in
attributes with a trailing underscore.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Tuple

import numpy as np

__all__ = ["BaseEstimator", "clone", "check_X", "check_X_y", "NotFittedError"]


class NotFittedError(RuntimeError):
    """Raised when predict/transform is called before fit."""


def check_X(X: np.ndarray) -> np.ndarray:
    """Validate a 2-D, finite feature matrix and return it as float64."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (n_samples, n_features), got ndim={X.ndim}")
    if X.size and not np.all(np.isfinite(X)):
        raise ValueError("X contains NaN or infinity")
    return X


def check_X_y(X: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Validate an (X, y) training pair with matching first dimension."""
    X = check_X(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got ndim={y.ndim}")
    if y.shape[0] != X.shape[0]:
        raise ValueError(
            f"X and y disagree on sample count: {X.shape[0]} vs {y.shape[0]}"
        )
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    return X, y


class BaseEstimator:
    """Minimal estimator protocol: introspectable hyper-parameters."""

    #: Non-``trailing_underscore_`` instance attributes that carry fitted
    #: state and must survive :meth:`get_state` round-trips (e.g. the
    #: private target-scaling moments of the MLP regressor).
    _extra_state_attrs: Tuple[str, ...] = ()

    @classmethod
    def _param_names(cls) -> Tuple[str, ...]:
        sig = inspect.signature(cls.__init__)
        return tuple(
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        )

    def get_params(self) -> Dict[str, Any]:
        """Hyper-parameters as a dict (constructor keyword arguments)."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Set hyper-parameters in place; unknown names raise ValueError."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"{type(self).__name__} has no parameter {name!r}; "
                    f"valid: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    # -- fitted-state protocol (serving/model-registry support) -----------

    def get_state(self) -> Dict[str, Any]:
        """Fitted state as a plain dict (hyper-parameters excluded).

        Captures every instance attribute following the scikit-learn
        trailing-underscore convention (``weights_``, ``root_``, …) plus
        any class-declared :attr:`_extra_state_attrs`.  Values are
        returned by reference — the pure-numpy on-disk encoding lives in
        :mod:`repro.ml.serialize`.
        """
        state: Dict[str, Any] = {
            name: value
            for name, value in self.__dict__.items()
            if name.endswith("_") and not name.startswith("_")
        }
        for name in self._extra_state_attrs:
            if name in self.__dict__:
                state[name] = self.__dict__[name]
        return state

    def set_state(self, state: Dict[str, Any]) -> "BaseEstimator":
        """Restore fitted state captured by :meth:`get_state`."""
        for name, value in state.items():
            setattr(self, name, value)
        self._post_restore()
        return self

    def _post_restore(self) -> None:
        """Hook for rebuilding derived attributes after :meth:`set_state`."""

    def _require_fitted(self, *attrs: str) -> None:
        for attr in attrs:
            if not hasattr(self, attr):
                raise NotFittedError(
                    f"{type(self).__name__} is not fitted (missing {attr!r}); "
                    "call fit() first"
                )

    def _check_X_width(self, X: np.ndarray, n_features: int) -> np.ndarray:
        """:func:`check_X`, plus the feature count the model was fit with."""
        X = check_X(X)
        if X.shape[1] != n_features:
            raise ValueError(f"X has {X.shape[1]} features, {type(self).__name__}"
                             f" was fit with {n_features}")
        return X

    # -- persistence (the stable estimator surface) ------------------------

    def save(self, path) -> None:
        """Serialise this estimator to one ``.npz`` artifact.

        Pure-numpy persistence via :mod:`repro.ml.serialize` — no
        pickling, bit-identical round-trips.
        """
        from .serialize import save_estimator

        save_estimator(self, path)

    @classmethod
    def load(cls, path) -> "BaseEstimator":
        """Load an estimator saved by :meth:`save`.

        Called on a concrete class, the artifact must contain exactly
        that class; called on :class:`BaseEstimator`, any estimator
        artifact loads.
        """
        from .serialize import SerializationError, load_estimator

        est = load_estimator(path)
        if cls is not BaseEstimator and not isinstance(est, cls):
            raise SerializationError(
                f"artifact {path} holds a {type(est).__name__}, "
                f"not a {cls.__name__}"
            )
        return est


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """A fresh, unfitted estimator with identical hyper-parameters."""
    return type(estimator)(**estimator.get_params())
