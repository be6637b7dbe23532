"""Shared experiment runner for the benchmark suite.

Every table/figure bench needs the same expensive artefact: a labeled
dataset per (device, precision).  This module owns that lifecycle:

* experiment scale is configured through :class:`repro.config.ReproConfig`
  — the single resolution point of the ``REPRO_*`` environment
  variables (``REPRO_SCALE``, ``REPRO_MAX_NNZ``, ``REPRO_SEED``,
  ``REPRO_REPS``, ``REPRO_WORKERS``, ``REPRO_CACHE``; see
  :mod:`repro.config` for meanings and defaults), so the same bench
  files run in CI minutes or at full paper scale;

* datasets are built once per process and cached both in memory and on
  disk (``.npz``), exactly as the paper reuses one measurement campaign
  for all its tables.  The in-memory cache is keyed on the *config
  object* (:func:`bench_config` / the ``config=`` argument), so
  changing the environment mid-process transparently builds (or loads)
  the right dataset instead of serving a stale one.

Every entry point takes an optional ``config=`` argument defaulting to
``ReproConfig.from_env()``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from ..config import ReproConfig
from ..core import SpMVDataset, build_dataset
from ..gpu import DEVICES, DeviceSpec
from ..matrices import SyntheticCorpus

__all__ = [
    "bench_config",
    "bench_corpus",
    "bench_dataset",
    "CONFIGS",
]

#: The paper's four measurement configurations: (device key, precision).
CONFIGS: Tuple[Tuple[str, str], ...] = (
    ("k40c", "single"),
    ("k40c", "double"),
    ("p100", "single"),
    ("p100", "double"),
)


def bench_config() -> ReproConfig:
    """Resolve the ``REPRO_*`` environment into a :class:`ReproConfig`."""
    return ReproConfig.from_env()


@lru_cache(maxsize=4)
def _corpus_for(scale: float, seed: int, max_nnz: int) -> SyntheticCorpus:
    return SyntheticCorpus(scale=scale, seed=seed, max_nnz=max_nnz)


def bench_corpus(config: Optional[ReproConfig] = None) -> SyntheticCorpus:
    """The benchmark corpus at the configured scale (process-cached)."""
    cfg = config if config is not None else bench_config()
    return _corpus_for(cfg.scale, cfg.seed, cfg.max_nnz)


@lru_cache(maxsize=8)
def _dataset_for(cfg: ReproConfig, device_key: str, precision: str) -> SpMVDataset:
    device: DeviceSpec = DEVICES[device_key]
    return build_dataset(
        _corpus_for(cfg.scale, cfg.seed, cfg.max_nnz),
        device,
        precision,
        reps=cfg.reps,
        seed=cfg.seed,
        cache_path=cfg.cache_path / cfg.dataset_tag(device_key, precision),
        workers=cfg.workers,
        shard_dir=cfg.shard_dir,
    )


def bench_dataset(
    device_key: str = "k40c",
    precision: str = "single",
    config: Optional[ReproConfig] = None,
) -> SpMVDataset:
    """Labeled dataset for one configuration (memory + disk cached)."""
    cfg = config if config is not None else bench_config()
    return _dataset_for(cfg, device_key, precision)


# The pre-refactor functions were lru_cached directly and the test suite
# (and downstream users) clear them between scale changes; keep that API.
bench_corpus.cache_clear = _corpus_for.cache_clear  # type: ignore[attr-defined]
bench_dataset.cache_clear = _dataset_for.cache_clear  # type: ignore[attr-defined]
