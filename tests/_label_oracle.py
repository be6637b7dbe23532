"""Frozen per-cell reference implementation of the labeling loop.

This is the exact loop :meth:`repro.gpu.SpMVExecutor.benchmark_batch`
ran before it became one vectorised pass per matrix: one jitter block
per matrix, then a Python walk over its feasible cells that builds each
:class:`TimingSample` from ``runs.mean()`` / ``runs.std()`` and
``cost.at(i, j)``.  ``tests/test_label_equivalence.py`` uses it as a
bit-for-bit oracle.  Do not "optimise" it — its value is being frozen.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro import obs
from repro.formats import FORMAT_NAMES, SparseFormat
from repro.gpu import MatrixProfile, SpMVExecutor
from repro.gpu.batch import ProfileBatch
from repro.gpu.executor import BenchmarkSweep, TimingSample

__all__ = ["benchmark_batch_per_cell"]


def benchmark_batch_per_cell(
    self: SpMVExecutor,
    matrices: Sequence[Union[SparseFormat, MatrixProfile]],
    *,
    formats: Sequence[str] = FORMAT_NAMES,
    reps: int = 50,
) -> List[BenchmarkSweep]:
    """Reference: the per-cell ``benchmark_batch`` loop, on ``self``."""
    if reps <= 0:
        raise ValueError("reps must be positive")
    profiles = [self.profile(m) for m in matrices]
    batch = ProfileBatch.from_profiles(profiles)
    cost, failed = self.sweep(batch, formats)
    failures = self._failures(batch, cost, failed)
    col = {fmt: j for j, fmt in enumerate(cost.formats)}
    sweeps: List[BenchmarkSweep] = []
    for i, prof in enumerate(profiles):
        fail_i = failures[i]
        feasible = [fmt for fmt in formats if fmt not in fail_i]
        factors = self.noise.run_factors(
            self.rng, reps * len(feasible)
        ).reshape(len(feasible), reps)
        samples: Dict[str, Optional[TimingSample]] = {
            fmt: None for fmt in formats
        }
        for k, fmt in enumerate(feasible):
            j = col[fmt]
            base_seconds = float(cost.seconds[i, j])
            fixed = self.noise.structural_factor(
                prof.digest, fmt, self.device.name, self.precision
            )
            runs = base_seconds * fixed * factors[k]
            mean = float(runs.mean())
            if obs.enabled():
                obs.incr("gpu.benchmarks")
                obs.observe(f"gpu.model_seconds.{fmt}", mean)
            flops = float(cost.flops[i, j])
            samples[fmt] = TimingSample(
                fmt=fmt,
                device=self.device.name,
                precision=self.precision,
                seconds=mean,
                std_seconds=float(runs.std()),
                reps=reps,
                gflops=flops / mean / 1e9 if mean > 0 else 0.0,
                breakdown=cost.at(i, j),
            )
        sweeps.append(BenchmarkSweep(samples, fail_i))
    return sweeps
