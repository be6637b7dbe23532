"""Joint format + kernel-parameter tuning space.

The paper selects among *fixed* storage formats, but the real decision
space on a GPU is format **plus** kernel parameters: the HYB ELL/COO
split threshold, the BSR block shape, the CSR vector-kernel lane count,
the ELL rows-per-thread chunking, a width cap guarding ELL padding
blow-ups (Auto-SpMV and Stylianou & Weiland argue for lightweight
runtime selection over exactly such joint spaces; see PAPERS.md).

This module widens the repo's decision vocabulary accordingly:

* :class:`Configuration` — one point of the joint space: a format name
  plus a mapping of tuning parameters, frozen and hashable, with a
  **stable string key** (``"csr"``, ``"hyb?split=2"``,
  ``"bsr?block_shape=2x2"``).  The key of an all-default configuration
  is the bare format name, which is what keeps every existing dataset,
  noise stream and cache entry valid: the joint space is a strict
  superset of the historical format vocabulary.
* :data:`PARAMETER_GRIDS` — the per-format parameter grids the tuned
  campaign sweeps; :func:`format_grid` / :func:`tuned_space` enumerate
  them (default configuration first).
* The cost models in :mod:`repro.gpu.batch` take the configurations of
  their format as their last argument (one parameterised model per
  format, called once per sweep with the parameter values as a row);
  non-default parameters re-derive the affected geometry analytically
  from the profile statistics (HYB split tables, BSR block counts at
  other shapes) so no extra analysis pass is needed.  Keys are parsed
  once per key tuple into a cached plan, and the executor's sweep
  prunes parameter-specific infeasibilities (the ELL width cap) from
  the same pass.
* Energy proxy — :func:`energy_joules` derives a per-invocation energy
  estimate from the cost breakdown (DRAM traffic + arithmetic + static
  power), and :func:`scalarize` folds it into a multi-objective
  selection score; ``weight=0`` (the default) returns the seconds
  unchanged, so single-objective argmins are bit-identical.

The string keys flow through every layer that treats formats as opaque
names — datasets, selectors, predictors, the noise model, campaign
shards, serving caches — which is what makes the joint space an API
*extension* rather than a rewrite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Sequence, Tuple, Union

import numpy as np

from .formats import FORMAT_NAMES

if TYPE_CHECKING:  # the gpu package imports this module
    from .gpu.device import DeviceSpec

__all__ = [
    "ConfigError",
    "ParamSpec",
    "Configuration",
    "PARAMETER_GRIDS",
    "format_grid",
    "configurations",
    "tuned_space",
    "default_space",
    "is_config_key",
    "base_format",
    "coerce",
    "energy_joules",
    "scalarize",
    "tuned_vs_default_speedup",
]


class ConfigError(ValueError):
    """Raised for malformed configurations or configuration keys."""


@dataclass(frozen=True)
class ParamSpec:
    """One tunable kernel parameter of a format.

    ``choices`` is the campaign grid, default first; ``kind`` selects
    the string codec used in configuration keys (``int``, ``float``,
    ``shape`` for ``RxC`` block shapes, ``optional_int`` for
    ``none``-able integer caps).
    """

    name: str
    default: object
    choices: Tuple
    kind: str

    def encode(self, value) -> str:
        if value is None:
            return "none"
        if self.kind == "shape":
            return "x".join(str(int(v)) for v in value)
        if self.kind == "float":
            return f"{float(value):g}"
        return str(int(value))

    def decode(self, token: str):
        try:
            if self.kind == "optional_int":
                return None if token == "none" else int(token)
            if self.kind == "shape":
                parts = tuple(int(t) for t in token.split("x"))
                if len(parts) != 2:
                    raise ValueError(token)
                return parts
            if self.kind == "float":
                return float(token)
            return int(token)
        except ValueError:
            raise ConfigError(
                f"cannot parse {token!r} as a {self.kind} value for "
                f"parameter {self.name!r}"
            ) from None

    def canonical(self, value):
        """Coerce ``value`` to the parameter's canonical type."""
        try:
            if self.kind == "optional_int":
                return None if value is None else int(value)
            if self.kind == "shape":
                r, c = value
                return (int(r), int(c))
            if self.kind == "float":
                return float(value)
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"invalid value {value!r} for parameter {self.name!r}"
            ) from None


#: Per-format tuning grids (default value first in every ``choices``).
#: Formats with an empty tuple have exactly one configuration — their
#: default — so the joint space degenerates to the paper's format-only
#: vocabulary when every grid is empty.
PARAMETER_GRIDS: Dict[str, Tuple[ParamSpec, ...]] = {
    "coo": (),
    "csr": (
        # Lanes assigned per row by the vector kernel: fewer lanes waste
        # less work on short rows but narrow the coalesced loads and the
        # warp-level reduction.
        ParamSpec("lanes", 32, (32, 16, 8), "int"),
    ),
    "ell": (
        # Rows handled by one thread: chunking amortises scheduling on
        # regular matrices, but serialises skewed rows.
        ParamSpec("rows_per_thread", 1, (1, 2, 4), "int"),
        # Hard cap on the padded width: configurations whose matrix is
        # wider are *infeasible* (pruned), not slow.
        ParamSpec("width_cap", None, (None, 512), "optional_int"),
    ),
    "hyb": (
        # Multiplier on the paper's mean-row-length split threshold
        # (k = ceil(split * nnz / n_rows)): <1 pushes work to the COO
        # spill, >1 grows the regular ELL plane.
        ParamSpec("split", 1.0, (1.0, 0.5, 2.0, 4.0), "float"),
    ),
    "csr5": (),
    "merge_csr": (),
    "dia": (),
    "bsr": (
        ParamSpec("block_shape", (4, 4), ((4, 4), (2, 2), (8, 8)), "shape"),
    ),
}


def _specs_of(fmt: str) -> Dict[str, ParamSpec]:
    try:
        return {s.name: s for s in PARAMETER_GRIDS[fmt]}
    except KeyError:
        raise ConfigError(
            f"unknown format {fmt!r}; expected one of {sorted(PARAMETER_GRIDS)}"
        ) from None


@dataclass(frozen=True)
class Configuration:
    """One point of the joint format + parameter space.

    ``params`` may be passed as a mapping or an iterable of pairs; it is
    canonicalised to a sorted tuple of ``(name, value)`` pairs holding
    only the *non-default* parameters, so two configurations describing
    the same point always compare (and hash) equal and
    ``Configuration.from_key(c.key) == c`` round-trips exactly.
    """

    format: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        specs = _specs_of(self.format)
        raw = dict(self.params.items()) if isinstance(self.params, Mapping) \
            else dict(self.params)
        canonical = []
        for name in sorted(raw):
            spec = specs.get(name)
            if spec is None:
                raise ConfigError(
                    f"format {self.format!r} has no parameter {name!r}; "
                    f"expected one of {sorted(specs) or '(none)'}"
                )
            value = spec.canonical(raw[name])
            if value != spec.default:
                canonical.append((name, value))
        object.__setattr__(self, "params", tuple(canonical))

    # -- accessors ---------------------------------------------------------

    def param(self, name: str):
        """Value of ``name`` (explicit or the format's default)."""
        for pname, value in self.params:
            if pname == name:
                return value
        spec = _specs_of(self.format).get(name)
        if spec is None:
            raise ConfigError(
                f"format {self.format!r} has no parameter {name!r}"
            )
        return spec.default

    @property
    def is_default(self) -> bool:
        """True when every parameter sits at its default."""
        return not self.params

    @property
    def non_default_params(self) -> Dict[str, object]:
        """The explicitly tuned parameters as a plain dict."""
        return dict(self.params)

    @property
    def resolved_params(self) -> Dict[str, object]:
        """Every parameter of the format, defaults filled in."""
        out = {s.name: s.default for s in PARAMETER_GRIDS[self.format]}
        out.update(self.params)
        return out

    @property
    def key(self) -> str:
        """Stable string key.

        The all-default configuration's key **is** the bare format name
        — the property that keeps historical datasets, shard keys and
        noise streams valid; non-default parameters append as a sorted
        ``?name=value&...`` query.
        """
        if not self.params:
            return self.format
        specs = _specs_of(self.format)
        query = "&".join(
            f"{name}={specs[name].encode(value)}" for name, value in self.params
        )
        return f"{self.format}?{query}"

    def as_dict(self) -> Dict:
        """JSON-able view (what serving responses put on the wire)."""
        params = {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in self.resolved_params.items()
        }
        return {"format": self.format, "params": params, "key": self.key}

    def __str__(self) -> str:
        return self.key

    # -- construction ------------------------------------------------------

    @classmethod
    def default(cls, fmt: str) -> "Configuration":
        """The all-default configuration of ``fmt``."""
        return cls(fmt, ())

    @classmethod
    def from_key(cls, key: str) -> "Configuration":
        """Parse a configuration key (inverse of :attr:`key`)."""
        if not isinstance(key, str):
            raise ConfigError(f"configuration key must be a string, got {key!r}")
        fmt, _, query = key.partition("?")
        specs = _specs_of(fmt)
        params = {}
        if query:
            for part in query.split("&"):
                name, sep, token = part.partition("=")
                if not sep:
                    raise ConfigError(f"malformed configuration key {key!r}")
                spec = specs.get(name)
                if spec is None:
                    raise ConfigError(
                        f"format {fmt!r} has no parameter {name!r} "
                        f"(in key {key!r})"
                    )
                params[name] = spec.decode(token)
        return cls(fmt, params)


def coerce(value: Union["Configuration", str, Mapping]) -> Configuration:
    """Coerce a configuration-ish value to a :class:`Configuration`.

    Accepts a :class:`Configuration`, a string key (a bare format name
    is the key of its default configuration), or a mapping with
    ``format`` (and optionally ``params``) entries.
    """
    if isinstance(value, Configuration):
        return value
    if isinstance(value, str):
        return Configuration.from_key(value)
    if isinstance(value, Mapping):
        try:
            fmt = value["format"]
        except KeyError:
            raise ConfigError(
                f"configuration mapping needs a 'format' entry: {value!r}"
            ) from None
        return Configuration(fmt, value.get("params") or {})
    raise ConfigError(
        f"cannot coerce {type(value).__name__} to a Configuration"
    )


# ---------------------------------------------------------------------------
# Space enumeration
# ---------------------------------------------------------------------------


def format_grid(fmt: str) -> Tuple[Configuration, ...]:
    """Every grid configuration of ``fmt`` (default configuration first)."""
    specs = PARAMETER_GRIDS.get(fmt)
    if specs is None:
        raise ConfigError(
            f"unknown format {fmt!r}; expected one of {sorted(PARAMETER_GRIDS)}"
        )
    out, seen = [], set()
    for combo in itertools.product(*(s.choices for s in specs)):
        config = Configuration(fmt, dict(zip((s.name for s in specs), combo)))
        if config.key not in seen:
            seen.add(config.key)
            out.append(config)
    return tuple(out)


def configurations(
    formats: Sequence[str] = FORMAT_NAMES,
) -> Tuple[Configuration, ...]:
    """The joint grid over ``formats``, format order preserved."""
    out = []
    for fmt in formats:
        out.extend(format_grid(fmt))
    return tuple(out)


def tuned_space(formats: Sequence[str] = FORMAT_NAMES) -> Tuple[str, ...]:
    """Configuration keys of the joint grid (campaign vocabulary)."""
    return tuple(c.key for c in configurations(formats))


def default_space(formats: Sequence[str] = FORMAT_NAMES) -> Tuple[str, ...]:
    """Keys of the all-default configurations (== the bare format names)."""
    return tuple(Configuration.default(fmt).key for fmt in formats)


def is_config_key(name: str) -> bool:
    """True when ``name`` carries explicit parameters (``fmt?...``)."""
    return isinstance(name, str) and "?" in name


def base_format(name: str) -> str:
    """The format component of a configuration key (identity for bare names)."""
    return name.partition("?")[0]


# ---------------------------------------------------------------------------
# Energy proxy + multi-objective scalarisation
# ---------------------------------------------------------------------------


def energy_joules(cost, device: DeviceSpec):
    """Energy-proxy estimate of one kernel invocation (Joules).

    Works on a scalar :class:`~repro.gpu.kernels.CostBreakdown` or a
    :class:`~repro.gpu.batch.CostBreakdownBatch` (elementwise).  Three
    terms, all first-order: DRAM traffic at ``dram_pj_per_byte``,
    useful arithmetic at ``pj_per_flop``, and static/leakage power
    integrated over the kernel duration.  Infeasible estimates
    (``seconds == inf``) yield infinite energy, so masking survives
    scalarisation.
    """
    traffic = cost.matrix_bytes + cost.x_bytes + cost.y_bytes
    dynamic = (
        traffic * device.dram_pj_per_byte + cost.flops * device.pj_per_flop
    ) * 1e-12
    return dynamic + device.static_watts * cost.seconds


def scalarize(seconds, energy, weight: float = 0.0):
    """Multi-objective selection score ``seconds^(1-w) * energy^w``.

    ``weight == 0`` returns ``seconds`` unchanged (bit-identical
    argmins — the default single-objective behaviour); ``weight == 1``
    ranks purely by the energy proxy.  The geometric blend keeps the
    score monotone in both objectives and unit-stable for argmin use.
    """
    w = float(weight)
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"energy weight must be in [0, 1], got {weight!r}")
    if w == 0.0:
        return seconds
    return seconds ** (1.0 - w) * np.asarray(energy) ** w


# ---------------------------------------------------------------------------
# Reporting helpers
# ---------------------------------------------------------------------------


def tuned_vs_default_speedup(
    times: np.ndarray, formats: Sequence[str]
) -> Dict[str, float]:
    """Tuned-over-default speedup summary of a labeled campaign.

    ``times`` is the campaign's ``(N, F)`` per-configuration time
    matrix (``inf`` for failures) with columns named by ``formats``
    (configuration keys).  Compares, per matrix, the best all-default
    configuration against the best configuration overall, and returns
    the geometric-mean / max speedup plus the fraction of matrices
    where a non-default configuration wins outright.
    """
    times = np.asarray(times, dtype=np.float64)
    default_cols = [j for j, f in enumerate(formats) if "?" not in f]
    if not default_cols:
        raise ValueError("no default configurations among formats")
    best_default = np.min(times[:, default_cols], axis=1)
    best_tuned = np.min(times, axis=1)
    ok = np.isfinite(best_default) & np.isfinite(best_tuned) & (best_tuned > 0)
    ratio = best_default[ok] / best_tuned[ok]
    if ratio.size == 0:
        return {"geomean": 1.0, "max": 1.0, "tuned_wins": 0.0, "n": 0}
    return {
        "geomean": float(np.exp(np.mean(np.log(ratio)))),
        "max": float(ratio.max()),
        "tuned_wins": float(np.mean(ratio > 1.0)),
        "n": int(ratio.size),
    }
