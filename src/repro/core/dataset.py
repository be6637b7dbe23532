"""Dataset assembly: corpus → (features, labels, times) arrays.

:func:`build_dataset` runs the labeling protocol over a corpus on one
simulated device/precision and packs the result into an
:class:`SpMVDataset` — the object every experiment in the paper's
evaluation consumes.  Datasets serialise to ``.npz`` so the expensive
labeling pass can be cached between benchmark tables (all the paper's
tables reuse one measurement campaign per device/precision).

The measurement loop itself lives in :mod:`repro.bench.campaign`;
:func:`build_dataset` is a thin wrapper that adds whole-dataset
``.npz`` caching on top of the engine's parallel, fault-tolerant,
shard-resumable execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..features import ALL_FEATURES, FEATURE_SETS
from ..formats import FORMAT_NAMES
from ..gpu import DeviceSpec, NoiseModel
from ..matrices import SyntheticCorpus
from .labeling import DEFAULT_REPS

__all__ = ["SpMVDataset", "build_dataset"]


@dataclass
class SpMVDataset:
    """Labeled SpMV measurement campaign over a corpus.

    Attributes
    ----------
    names:
        Matrix names, length ``n``.
    feature_array:
        ``(n, 17)`` feature matrix in :data:`repro.features.ALL_FEATURES`
        order.
    times:
        ``(n, n_formats)`` mean execution seconds.
    formats:
        Format names defining the column order of ``times``.
    labels:
        Best-format index per matrix (argmin of ``times``).
    device, precision:
        Provenance of the measurements.
    reps:
        Repetition count of the measurement campaign (``0`` for legacy
        datasets saved before the count was recorded).
    """

    names: List[str]
    feature_array: np.ndarray
    times: np.ndarray
    formats: Tuple[str, ...]
    device: str
    precision: str
    reps: int = 0

    def __post_init__(self) -> None:
        n = len(self.names)
        if self.feature_array.shape != (n, len(ALL_FEATURES)):
            raise ValueError("feature_array shape mismatch")
        if self.times.shape != (n, len(self.formats)):
            raise ValueError("times shape mismatch")

    # -- views ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    @property
    def labels(self) -> np.ndarray:
        """Best-format index per matrix."""
        return np.argmin(self.times, axis=1)

    @property
    def label_names(self) -> np.ndarray:
        """Best-format name per matrix."""
        return np.array(self.formats)[self.labels]

    @property
    def gflops(self) -> np.ndarray:
        """Achieved GFLOP/s per (matrix, format)."""
        nnz = self.feature_array[:, ALL_FEATURES.index("nnz_tot")]
        return 2.0 * nnz[:, None] / self.times / 1e9

    def X(self, feature_set: Union[str, Sequence[str]] = "set123") -> np.ndarray:
        """Feature matrix restricted to a named set or explicit list.

        ``feature_set`` may be one of :data:`repro.features.FEATURE_SETS`
        keys (``"set1"``, ``"set12"``, ``"set123"``, ``"imp"``) or an
        explicit sequence of feature names.
        """
        names = FEATURE_SETS[feature_set] if isinstance(feature_set, str) else feature_set
        idx = [ALL_FEATURES.index(f) for f in names]
        return self.feature_array[:, idx]

    def subset(self, mask: np.ndarray) -> "SpMVDataset":
        """Row-subset of the dataset (boolean mask or index array)."""
        mask = np.asarray(mask)
        idx = np.flatnonzero(mask) if mask.dtype == bool else mask
        return SpMVDataset(
            names=[self.names[i] for i in idx],
            feature_array=self.feature_array[idx],
            times=self.times[idx],
            formats=self.formats,
            device=self.device,
            precision=self.precision,
            reps=self.reps,
        )

    def restrict_formats(self, formats: Sequence[str]) -> "SpMVDataset":
        """Project onto a format subset (e.g. the basic ELL/CSR/HYB study)."""
        cols = [self.formats.index(f) for f in formats]
        return SpMVDataset(
            names=list(self.names),
            feature_array=self.feature_array,
            times=self.times[:, cols],
            formats=tuple(formats),
            device=self.device,
            precision=self.precision,
            reps=self.reps,
        )

    def drop_coo_best(self) -> "SpMVDataset":
        """Apply the paper's Sec. V-A rule: drop matrices where COO wins."""
        if "coo" not in self.formats:
            return self
        coo_idx = self.formats.index("coo")
        return self.subset(self.labels != coo_idx)

    # -- persistence ---------------------------------------------------------

    def digest(self) -> str:
        """Content digest (sha256 hex) of the full labeled dataset.

        Stable across save/load round-trips; the model registry records
        it so every artifact names the exact training data it saw.
        """
        import hashlib

        h = hashlib.sha256()
        h.update("\x1f".join(self.names).encode())
        h.update(np.ascontiguousarray(self.feature_array, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(self.times, dtype=np.float64).tobytes())
        h.update(",".join(self.formats).encode())
        h.update(f"|{self.device}|{self.precision}|{self.reps}".encode())
        return h.hexdigest()

    def save(self, path: Union[str, Path]) -> None:
        """Serialise to ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            feature_array=self.feature_array,
            times=self.times,
            formats=np.array(self.formats),
            device=self.device,
            precision=self.precision,
            reps=self.reps,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SpMVDataset":
        """Load a dataset saved by :meth:`save`."""
        with np.load(path, allow_pickle=False) as z:
            return cls(
                names=[str(s) for s in z["names"]],
                feature_array=z["feature_array"],
                times=z["times"],
                formats=tuple(str(s) for s in z["formats"]),
                device=str(z["device"]),
                precision=str(z["precision"]),
                reps=int(z["reps"]) if "reps" in z.files else 0,
            )


def build_dataset(
    corpus: SyntheticCorpus,
    device: DeviceSpec,
    precision: str = "single",
    *,
    formats: Sequence[str] = FORMAT_NAMES,
    reps: int = DEFAULT_REPS,
    noise: Optional[NoiseModel] = None,
    seed: int = 0,
    cache_path: Optional[Union[str, Path]] = None,
    workers: Optional[int] = None,
    shard_dir: Optional[Union[str, Path]] = None,
) -> SpMVDataset:
    """Label a whole corpus on one simulated device/precision.

    Thin wrapper over the measurement-campaign engine
    (:func:`repro.bench.campaign.run_campaign`): the per-matrix labeling
    loop fans out over ``workers`` processes (default: the
    ``REPRO_WORKERS`` environment variable, falling back to serial),
    per-matrix failures are recorded and skipped, and ``shard_dir``
    makes interrupted campaigns resumable.  Results are bit-identical
    for any worker count (each matrix draws from its own derived seed).

    Matrices failing any requested format are dropped (the paper's
    protocol).  If ``cache_path`` exists *and matches* the requested
    formats, precision, device and reps, it is loaded instead of
    re-measuring; on any mismatch — or after a fresh build — the
    dataset is rebuilt and saved there.  (Datasets saved before the
    repetition count was recorded report ``reps == 0`` and are accepted
    for any ``reps``.)
    """
    if cache_path is not None and Path(cache_path).exists():
        ds = SpMVDataset.load(cache_path)
        if (
            ds.formats == tuple(formats)
            and ds.precision == precision
            and ds.device == device.name
            and ds.reps in (0, reps)
        ):
            return ds

    from ..bench.campaign import run_campaign

    result = run_campaign(
        corpus,
        device,
        precision,
        formats=formats,
        reps=reps,
        noise=noise,
        seed=seed,
        workers=workers,
        shard_dir=shard_dir,
    )
    ds = result.to_dataset()
    if cache_path is not None:
        Path(cache_path).parent.mkdir(parents=True, exist_ok=True)
        ds.save(cache_path)
    return ds
