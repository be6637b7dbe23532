"""Ground-truth label collection (paper Sec. IV-B).

The paper's protocol: execute every (matrix, format) pair 50 times,
average the execution time, and label each matrix with the format of
minimum mean time (equivalently maximum GFLOPS).  Matrices that fail
for any format under study (OOM, ELL padding blow-up) are dropped, as
the paper dropped ~400 of its 2700 SuiteSparse matrices.

Sec. V-A's COO rule is also implemented: matrices whose best format is
COO are removed from the classification study (COO wins are rare and
always near-ties, so the performance loss of excluding it is minimal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..features import extract_features
from ..formats import FORMAT_NAMES, SparseFormat
from ..gpu import MatrixProfile, SpMVExecutor
from ..gpu.batch import known_formats

from ..config import DEFAULT_REPS  # noqa: F401  (canonical home: repro.config)

__all__ = ["MatrixLabel", "label_matrix", "DEFAULT_REPS"]


@dataclass(frozen=True)
class MatrixLabel:
    """Ground truth for one matrix on one (device, precision).

    Attributes
    ----------
    name:
        Corpus name of the matrix.
    features:
        The 17 structural features (see :mod:`repro.features`).
    times:
        Mean execution seconds per format (only formats that ran).
    gflops:
        Achieved GFLOP/s per format.
    best_format:
        Format with minimum mean time.
    failed:
        Formats that could not execute, with the failure reason.
    """

    name: str
    features: Dict[str, float]
    times: Dict[str, float]
    gflops: Dict[str, float]
    best_format: str
    failed: Dict[str, str]

    @property
    def complete(self) -> bool:
        """True when every requested format executed successfully."""
        return not self.failed

    def slowdown(self, fmt: str) -> float:
        """Penalty of choosing ``fmt`` instead of the best format.

        A format that failed to execute is infinitely worse than the
        best one, so it reports ``float("inf")`` rather than raising.
        Formats that were never requested still raise ``KeyError``.
        """
        if fmt in self.failed:
            return float("inf")
        return self.times[fmt] / self.times[self.best_format]


def label_matrix(
    executor: SpMVExecutor,
    matrix: SparseFormat,
    *,
    name: str = "",
    formats: Sequence[str] = FORMAT_NAMES,
    reps: int = DEFAULT_REPS,
    features: Optional[Dict[str, float]] = None,
    profile: Optional[MatrixProfile] = None,
) -> MatrixLabel:
    """Benchmark all ``formats`` on ``matrix`` and derive its label.

    Parameters
    ----------
    executor:
        The simulated device/precision to measure on.
    matrix:
        Any sparse format instance.
    name:
        Corpus name recorded in the label.
    formats:
        Formats under study (Tables IV–VI use the basic three,
        Tables VII+ all six).
    reps:
        Repetitions to average (paper: 50).
    features, profile:
        Optionally pre-computed features/profile to avoid re-scanning.

    Raises
    ------
    ValueError
        If *no* requested format could execute.
    """
    if profile is None and features is None:
        # One shared structural scan yields both (see repro.analysis).
        analysis = executor.analyze(matrix)
        prof, feats = analysis.profile, analysis.features
    else:
        prof = profile if profile is not None else executor.profile(matrix)
        feats = features if features is not None else extract_features(matrix)
    times: Dict[str, float] = {}
    gflops: Dict[str, float] = {}
    failed: Dict[str, str] = {}
    # One batched sweep covers every known format and configuration key
    # ("hyb?split=2"): feasibility, cost models and noise sampling.  The
    # known keys come from the sweep's cached plan, so no key is parsed
    # per matrix.
    known = known_formats(formats)
    for fmt in formats:
        if fmt not in known:  # the KeyError a per-format call would raise
            failed[fmt] = f"KeyError: {fmt!r}"
    sweep = executor.benchmark_batch([prof], formats=known, reps=reps)[0]
    for fmt in known:
        sample = sweep[fmt]
        if sample is None:  # simulated OOM / kernel failure
            failed[fmt] = str(sweep.failures[fmt])
            continue
        times[fmt] = sample.seconds
        gflops[fmt] = sample.gflops
    failed = {fmt: failed[fmt] for fmt in formats if fmt in failed}
    if not times:
        raise ValueError(f"matrix {name!r}: every format failed: {failed}")
    best = min(times, key=times.get)
    return MatrixLabel(
        name=name,
        features=feats,
        times=times,
        gflops=gflops,
        best_format=best,
        failed=failed,
    )
