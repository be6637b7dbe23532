"""Sampling-based adaptive format selection (Zardoshti et al. baseline).

The paper's related work (Sec. VII) describes an alternative to ML
selection: *execute a small portion of the input matrix* in every
candidate format and keep the winner.  This module implements that
baseline so the benches can quantify the trade-off the paper implies —
the adaptive probe needs no training at all, but its selection cost is
format-count × probe-benchmark instead of one feature pass + model
inference, and a small sample can misjudge formats whose behaviour is
driven by global structure (ELL's padding is decided by the single
longest row, which a row sample easily misses).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..formats import FORMAT_NAMES, COOMatrix, SparseFormat
from ..gpu import SimulationError, SpMVExecutor

__all__ = ["SamplingSelector", "sample_rows"]


def probe_seconds(
    executor: SpMVExecutor,
    matrix: SparseFormat,
    formats: Sequence[str],
    reps: int,
) -> Dict[str, Optional[float]]:
    """Mean probe time of each format, ``None`` where it cannot run.

    One analysis and one :meth:`~repro.gpu.SpMVExecutor.benchmark_batch`
    sweep, bit for bit a loop of per-format ``benchmark`` calls.  A
    failure that is not a :class:`~repro.gpu.SimulationError` (a
    degenerate estimate) raises, as ``benchmark`` would.
    """
    sweep = executor.benchmark_batch(
        [executor.profile(matrix)], formats=formats, reps=reps
    )[0]
    out: Dict[str, Optional[float]] = {}
    for fmt in formats:
        failure = sweep.failures.get(fmt)
        if failure is None:
            out[fmt] = sweep[fmt].seconds
            continue
        exc = failure.exception()
        if not isinstance(exc, SimulationError):
            raise exc
        out[fmt] = None
    return out


def sample_rows(matrix: SparseFormat, fraction: float, *, seed: int = 0) -> COOMatrix:
    """A contiguous row-block sample of ``matrix``.

    Keeps the full column space (the x-gather behaviour must survive)
    and a contiguous block of ``ceil(fraction * rows)`` rows starting at
    a seeded offset — the sampling strategy of the adaptive-runtime
    literature, cheap to slice from CSR.
    The sampled block keeps its own row count, so per-row statistics
    (and therefore format behaviour) are preserved at scale.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    coo = matrix.to_coo()
    n_rows = coo.n_rows
    take = max(1, int(np.ceil(fraction * n_rows)))
    if take >= n_rows:
        return coo
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, n_rows - take + 1))
    keep = (coo.row >= start) & (coo.row < start + take)
    return COOMatrix(
        (take, coo.n_cols),
        coo.row[keep] - start,
        coo.col[keep],
        coo.val[keep],
        canonical=False,
    )


class SamplingSelector:
    """Pick the format that wins on a small sample of the matrix.

    Parameters
    ----------
    executor:
        The (simulated) device to probe on.
    fraction:
        Row fraction to sample (the literature uses 1–10 %).
    probe_reps:
        Benchmark repetitions per probe (small — the probe must be
        cheap, that is its selling point).
    formats:
        Candidate formats.
    seed:
        Sample-placement seed.
    """

    def __init__(
        self,
        executor: SpMVExecutor,
        *,
        fraction: float = 0.05,
        probe_reps: int = 3,
        formats: Sequence[str] = FORMAT_NAMES,
        seed: int = 0,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if probe_reps < 1:
            raise ValueError("probe_reps must be >= 1")
        self.executor = executor
        self.fraction = float(fraction)
        self.probe_reps = int(probe_reps)
        self.formats = tuple(formats)
        self.seed = int(seed)

    def probe(self, matrix: SparseFormat) -> Dict[str, Optional[float]]:
        """Sampled per-format probe timings (``None`` = probe failed)."""
        sample = sample_rows(matrix, self.fraction, seed=self.seed)
        return probe_seconds(self.executor, sample, self.formats, self.probe_reps)

    def predict_format(self, matrix: SparseFormat) -> str:
        """The format winning the sampled probe."""
        times = {f: t for f, t in self.probe(matrix).items() if t is not None}
        if not times:
            raise RuntimeError("every format failed on the sample")
        return min(times, key=times.get)

    def probe_cost_seconds(self, matrix: SparseFormat) -> float:
        """Total simulated device time the probe itself consumes."""
        total = 0.0
        for t in self.probe(matrix).values():
            if t is not None:
                total += t * self.probe_reps
        return total
