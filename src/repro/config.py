"""Unified runtime configuration: :class:`ReproConfig`.

Every ``REPRO_*`` environment variable the package understands is
resolved in exactly one place — :meth:`ReproConfig.from_env` — instead
of piecemeal ``os.environ`` reads scattered across the bench runner,
the campaign engine and the CLI.  The object is a frozen (hashable)
dataclass, so process-level caches key on *it*: change the environment
mid-process, call the entry point again, and the new config hashes to a
new cache slot instead of silently serving stale data.

Recognised variables (and their defaults):

========================  =====================================  ============
variable                  meaning                                default
========================  =====================================  ============
``REPRO_SCALE``           corpus fraction of the ~2300-matrix    ``0.1``
                          collection (paper scale is ``1.0``)
``REPRO_MAX_NNZ``         per-matrix nnz cap                     ``2_000_000``
``REPRO_SEED``            master seed                            ``0``
``REPRO_REPS``            repetitions per (matrix, format)       ``50``
``REPRO_WORKERS``         campaign worker processes              ``1``
``REPRO_CACHE``           dataset cache directory                ``.repro_cache``
========================  =====================================  ============

The bench entry points (:mod:`repro.bench.runner`) take an optional
``config=`` argument defaulting to ``ReproConfig.from_env()``::

    from repro.config import ReproConfig

    cfg = ReproConfig.from_env().replace(workers=8)
    ds = bench_dataset("k40c", "single", config=cfg)
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

__all__ = ["ReproConfig", "DEFAULT_REPS"]

#: The paper's measurement protocol: 50 repetitions per (matrix, format).
#: (:data:`repro.core.labeling.DEFAULT_REPS` re-exports this; the value
#: lives here so importing the config never pulls the ML stack in.)
DEFAULT_REPS = 50


@dataclass(frozen=True)
class ReproConfig:
    """Resolved runtime configuration (one frozen, hashable snapshot).

    Attributes mirror the ``REPRO_*`` environment variables; see the
    module docstring for meanings and defaults.
    """

    scale: float = 0.1
    max_nnz: int = 2_000_000
    seed: int = 0
    reps: int = DEFAULT_REPS
    workers: int = 1
    cache_dir: str = ".repro_cache"

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        if self.max_nnz < 1:
            raise ValueError(f"max_nnz must be >= 1, got {self.max_nnz}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> "ReproConfig":
        """Resolve the configuration from ``env`` (default: ``os.environ``).

        Accepts the same spellings the historical piecemeal readers did
        (``REPRO_MAX_NNZ`` may be written ``2e6``).
        """
        if env is None:
            env = os.environ
        return cls(
            scale=float(env.get("REPRO_SCALE", "0.1")),
            max_nnz=int(float(env.get("REPRO_MAX_NNZ", "2000000"))),
            seed=int(env.get("REPRO_SEED", "0")),
            reps=int(env.get("REPRO_REPS", str(DEFAULT_REPS))),
            workers=max(1, int(env.get("REPRO_WORKERS", "1"))),
            cache_dir=env.get("REPRO_CACHE", ".repro_cache"),
        )

    def replace(self, **changes) -> "ReproConfig":
        """A copy with ``changes`` applied (the object itself is frozen)."""
        return dataclasses.replace(self, **changes)

    @property
    def cache_path(self) -> Path:
        """``cache_dir`` as a :class:`~pathlib.Path`."""
        return Path(self.cache_dir)

    @property
    def shard_dir(self) -> Path:
        """Resume-shard directory under the dataset cache."""
        return self.cache_path / "shards"

    def dataset_tag(self, device_key: str, precision: str) -> str:
        """Canonical ``.npz`` cache filename for one (device, precision)."""
        return (
            f"{device_key}_{precision}_s{self.scale:g}_m{self.max_nnz}"
            f"_r{self.seed}_n{self.reps}.npz"
        )

    def to_dict(self) -> dict:
        """Plain-dict view (JSON-able; used by snapshots and reports)."""
        return dataclasses.asdict(self)
