"""The SpMV execution engine: numerics + simulated timing.

:class:`SpMVExecutor` stands in for the paper's measurement harness
(cuSPARSE / CSR5 / merge-CSR kernels timed on a K40c-K80c and a P100).
For a given matrix and format it

1. optionally executes ``y = A @ x`` *numerically* with the real format
   data structures (so every kernel is functionally exercised), and
2. produces a timing sample from the analytical kernel models
   (:mod:`repro.gpu.batch`) combined with the noise model
   (:mod:`repro.gpu.noise`).

The paper's measurement protocol — run each (matrix, format) 50 times
and average (Sec. IV-B) — is :meth:`SpMVExecutor.benchmark`.

Failure modes are simulated too: a format whose device footprint
exceeds GPU memory raises :class:`OutOfMemoryError`, and an ELL
conversion whose padding blows past ``ell_padding_limit`` raises
:class:`KernelFailure` — together these reproduce the ~400 SuiteSparse
matrices the paper had to drop because they "did not fit in the GPU
memory or failed to execute for one or more storage formats".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..formats import FORMAT_NAMES, SparseFormat, as_format
from . import batch as _batch
from .batch import CostBreakdown, CostBreakdownBatch, ProfileBatch
from .cache import LRUCache
from .device import DeviceSpec
from .kernels import estimate_time
from .noise import NoiseModel
from .profile import MatrixProfile, _mean_std

__all__ = [
    "SpMVExecutor",
    "TimingSample",
    "BenchmarkSweep",
    "FormatFailure",
    "SimulationError",
    "OutOfMemoryError",
    "KernelFailure",
]


class SimulationError(RuntimeError):
    """Base class for simulated execution failures."""


class OutOfMemoryError(SimulationError):
    """The format's device footprint exceeds GPU memory."""


class KernelFailure(SimulationError):
    """The kernel cannot execute this matrix (e.g. ELL padding blow-up)."""


#: Exception class of each :attr:`FormatFailure.error` name, so the
#: scalar entry points re-raise what the batched sweep recorded.
_ERRORS = {
    "OutOfMemoryError": OutOfMemoryError,
    "KernelFailure": KernelFailure,
    "ZeroDivisionError": ZeroDivisionError,
}

#: Codes of :meth:`SpMVExecutor.sweep`'s failure array: the check each
#: infeasible cell fails first, in the order the checks run.
PADDING, WIDTH_CAP, MEMORY, DEGENERATE = 1, 2, 3, 4


@dataclass(frozen=True)
class FormatFailure:
    """Structured reason one format could not be benchmarked.

    ``error`` is the class name of the exception the scalar path raises
    for the same matrix (``OutOfMemoryError``, ``KernelFailure``, ...)
    and ``reason`` its message, so ``str(failure)`` reproduces the
    historical ``f"{type(exc).__name__}: {exc}"`` labeling string.
    """

    fmt: str
    error: str
    reason: str

    def __str__(self) -> str:
        return f"{self.error}: {self.reason}"

    def exception(self) -> Exception:
        """The exception the scalar path raises for this failure."""
        return _ERRORS[self.error](self.reason)


@dataclass(frozen=True)
class TimingSample:
    """Aggregated timing of one (matrix, format) configuration.

    ``seconds`` is the mean over ``reps`` repetitions — the quantity the
    paper uses as its regression label; ``gflops`` the corresponding
    achieved rate (``2 nnz / seconds``).
    """

    fmt: str
    device: str
    precision: str
    seconds: float
    std_seconds: float
    reps: int
    gflops: float
    breakdown: CostBreakdown

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ValueError("timing must be positive")


class BenchmarkSweep(Dict[str, Optional[TimingSample]]):
    """Result of benchmarking one matrix across several formats.

    A plain ``dict`` of ``fmt -> TimingSample`` (``None`` where the
    format could not run) — so historical ``benchmark_all`` callers
    keep working unchanged — plus :attr:`failures`, mapping each failed
    format to its structured :class:`FormatFailure`.
    """

    def __init__(
        self,
        samples: Dict[str, Optional[TimingSample]],
        failures: Dict[str, FormatFailure],
    ) -> None:
        super().__init__(samples)
        self.failures = dict(failures)


class SpMVExecutor:
    """Simulated GPU SpMV runner for one device + precision.

    Parameters
    ----------
    device:
        Target :class:`~repro.gpu.device.DeviceSpec`.
    precision:
        ``"single"`` or ``"double"`` (paper evaluates both).
    noise:
        Noise model; default matches the calibration used for the
        reproduction experiments.  Pass ``NoiseModel(0, 0)`` for fully
        deterministic timings.
    seed:
        Seed of the per-run jitter stream.
    ell_padding_limit:
        Optional cap on ELL slots-per-nnz beyond which the ELL kernel
        is declared failed even if it would fit in memory.  ``None``
        (default) lets ELL run arbitrarily padded — like a real GPU,
        where a skewed matrix makes ELL *slow* long before the
        allocation fails — so only genuine OOM drops a matrix.
    format_cache_maxsize:
        Bound on the converted-format cache used by :meth:`run` (LRU);
        converted formats hold full index/value arrays, so the default
        is deliberately small.  ``None`` is unbounded.
    """

    def __init__(
        self,
        device: DeviceSpec,
        precision: str = "single",
        *,
        noise: Optional[NoiseModel] = None,
        seed: int = 0,
        ell_padding_limit: Optional[float] = None,
        format_cache_maxsize: Optional[int] = 16,
    ) -> None:
        if precision not in ("single", "double"):
            raise ValueError(f"precision must be 'single' or 'double', got {precision!r}")
        self.device = device
        self.precision = precision
        self.noise = noise if noise is not None else NoiseModel()
        self.rng = np.random.default_rng(seed)
        self.ell_padding_limit = None if ell_padding_limit is None else float(ell_padding_limit)
        self._format_cache = LRUCache(format_cache_maxsize)

    # -- profiling -------------------------------------------------------

    def profile(self, matrix: Union[SparseFormat, MatrixProfile]) -> MatrixProfile:
        """Structural profile of ``matrix`` (a profile passes through).

        One :func:`~repro.analysis.analyze_matrix` scan per call; callers
        that also need the features analyse once and pass the profile.
        """
        if isinstance(matrix, MatrixProfile):
            return matrix
        from .. import analysis

        return analysis.analyze_matrix(matrix).profile

    # -- feasibility -------------------------------------------------------

    def check_feasible(self, matrix: Union[SparseFormat, MatrixProfile], fmt: str) -> None:
        """Raise a :class:`SimulationError` if ``fmt`` cannot run here.

        A batch of one through :meth:`feasibility_batch`.
        """
        batch = ProfileBatch.from_profiles([self.profile(matrix)])
        failure = self.feasibility_batch(batch, (fmt,))[0].get(fmt)
        if failure is not None:
            raise failure.exception()

    def feasibility_batch(
        self, batch: ProfileBatch, formats: Sequence[str]
    ) -> List[Dict[str, FormatFailure]]:
        """Feasibility of every format over a whole batch.

        Returns one ``fmt -> FormatFailure`` dict per matrix; formats
        absent from a dict are feasible.  ``formats`` may hold tuning
        configuration keys.  The checks are :meth:`sweep`'s: the ELL
        padding limit (every ELL configuration honours it), then the
        configured ELL width cap, then device memory, first failure
        wins.  A degenerate estimate is not a feasibility failure here.
        """
        cost, failed = self.sweep(batch, formats)
        return self._failures(batch, cost, np.where(failed == DEGENERATE, 0, failed))

    def sweep(
        self, batch: ProfileBatch, formats: Sequence[str]
    ) -> Tuple[CostBreakdownBatch, np.ndarray]:
        """Costs and feasibility of N matrices × F formats in one pass.

        Returns the :func:`~repro.gpu.batch.estimate_batch` result and
        an ``(N, F)`` int8 array holding, per cell, 0 if the format runs
        or the code of the first check it fails: :data:`PADDING` (ELL
        slots per non-zero above ``ell_padding_limit``),
        :data:`WIDTH_CAP` (a row wider than the configuration's ELL
        width cap), :data:`MEMORY` (footprint plus the x and y vectors
        above device memory) or :data:`DEGENERATE` (a non-finite
        estimate).  The memory comparison is exact: footprints are
        integers below 2**53 (CSR5 adds a fractional bit-flag term).
        """
        cost = _batch.estimate_batch(batch, formats, self.device, self.precision)
        plan = _batch._plan(cost.formats)
        nonempty = (batch.nnz != 0)[:, None]
        need = cost.footprint + self._vector_bytes(batch)[:, None]
        failed = np.zeros(cost.shape, dtype=np.int8)
        # Last check first, so an earlier check overwrites a later one.
        failed[~np.isfinite(cost.seconds)] = DEGENERATE
        failed[need > self.device.global_mem_bytes] = MEMORY
        failed[nonempty & (batch.nnz_max[:, None] > plan.width_cap)] = WIDTH_CAP
        if self.ell_padding_limit is not None:
            too_padded = batch.ell_padding_ratio > self.ell_padding_limit
            failed[nonempty & too_padded[:, None] & plan.ell] = PADDING
        return cost, failed

    def _vector_bytes(self, batch: ProfileBatch) -> np.ndarray:
        """Device bytes of the x and y vectors of each matrix."""
        return (batch.n_rows + batch.n_cols) * (4 if self.precision == "single" else 8)

    def _failures(
        self, batch: ProfileBatch, cost: CostBreakdownBatch, failed: np.ndarray
    ) -> List[Dict[str, FormatFailure]]:
        """One ``fmt -> FormatFailure`` dict per matrix, built only for
        the failing cells of :meth:`sweep`'s ``failed`` array."""
        failures: List[Dict[str, FormatFailure]] = [{} for _ in range(len(batch))]
        plan = _batch._plan(cost.formats)
        ratio = batch.ell_padding_ratio
        vec_bytes = self._vector_bytes(batch)
        for i, j in zip(*np.nonzero(failed)):
            fmt = cost.formats[j]
            code = failed[i, j]
            if code == PADDING:
                failure = FormatFailure(
                    fmt,
                    "KernelFailure",
                    f"ELL padding ratio {ratio[i]:.1f} exceeds the "
                    f"limit of {self.ell_padding_limit:g}",
                )
            elif code == WIDTH_CAP:
                failure = FormatFailure(
                    fmt,
                    "KernelFailure",
                    f"ELL width {int(batch.nnz_max[i])} exceeds the "
                    f"configured width cap {plan.width_cap[j]}",
                )
            elif code == MEMORY:
                need = cost.footprint[i, j] + vec_bytes[i]
                mem = self.device.global_mem_bytes
                failure = FormatFailure(
                    fmt,
                    "OutOfMemoryError",
                    f"{fmt} needs {need / 1e9:.2f} GB, device has "
                    f"{mem / 1e9:.2f} GB",
                )
            else:
                # Degenerate zero-efficiency cells (HYB with nothing to
                # store) keep their historical labeling string.
                failure = FormatFailure(fmt, "ZeroDivisionError", "float division by zero")
            failures[i][fmt] = failure
        return failures

    # -- timing -------------------------------------------------------------

    def estimate(self, matrix: Union[SparseFormat, MatrixProfile], fmt: str) -> CostBreakdown:
        """Noise-free analytical estimate for one invocation."""
        prof = self.profile(matrix)
        return estimate_time(fmt, prof, self.device, self.precision)

    def benchmark(
        self,
        matrix: Union[SparseFormat, MatrixProfile],
        fmt: str,
        *,
        reps: int = 50,
    ) -> TimingSample:
        """Time ``fmt`` on ``matrix``: the paper's 50-rep mean protocol.

        A batch of one through :meth:`benchmark_batch`; a format that
        cannot run raises what the sweep recorded for it.
        """
        sweep = self.benchmark_batch([matrix], formats=(fmt,), reps=reps)[0]
        failure = sweep.failures.get(fmt)
        if failure is not None:
            raise failure.exception()
        return sweep[fmt]

    def estimate_batch(
        self,
        matrices: Union[ProfileBatch, Sequence[Union[SparseFormat, MatrixProfile]]],
        formats: Optional[Sequence[str]] = None,
    ) -> CostBreakdownBatch:
        """Noise-free estimates for N matrices × F formats in one pass.

        ``formats=None`` evaluates every registered kernel model;
        :meth:`estimate` is the batch of one.
        """
        if not isinstance(matrices, ProfileBatch):
            matrices = ProfileBatch.from_profiles(
                self.profile(m) for m in matrices
            )
        return _batch.estimate_batch(
            matrices, formats, self.device, self.precision
        )

    def benchmark_batch(
        self,
        matrices: Sequence[Union[SparseFormat, MatrixProfile]],
        *,
        formats: Sequence[str] = FORMAT_NAMES,
        reps: int = 50,
    ) -> List[BenchmarkSweep]:
        """Benchmark N matrices × F formats through one batched sweep.

        Profiling, feasibility/OOM checks and the cost models all run
        vectorized over the whole batch (:meth:`sweep`).  Each matrix is
        then labeled in one vectorized pass: its jitter is drawn as a
        single ``(feasible, reps)`` block covering its feasible formats
        in order (infeasible formats consume no randomness), scaled row
        by row by each cell's cost estimate and structural factor, and
        reduced to means and standard deviations row-wise.  This
        reproduces a loop of per-format :meth:`benchmark` calls bit for
        bit — so sweeps are interchangeable with such loops for any
        batch size (``tests/test_label_equivalence.py`` holds it to the
        frozen per-cell loop).
        """
        if reps <= 0:
            raise ValueError("reps must be positive")
        profiles = [self.profile(m) for m in matrices]
        batch = ProfileBatch.from_profiles(profiles)
        cost, failed = self.sweep(batch, formats)
        failures = self._failures(batch, cost, failed)
        col = {fmt: j for j, fmt in enumerate(cost.formats)}
        # Every cell's breakdown as Python floats in one conversion.
        cells = np.stack(
            [getattr(cost, name) for name in _batch._BREAKDOWN_FIELDS], axis=-1
        ).tolist()
        device, precision = self.device.name, self.precision
        sweeps: List[BenchmarkSweep] = []
        for i, prof in enumerate(profiles):
            fail_i = failures[i]
            feasible = [fmt for fmt in formats if fmt not in fail_i]
            factors = self.noise.run_factors(
                self.rng, reps * len(feasible)
            ).reshape(len(feasible), reps)
            cols = [col[fmt] for fmt in feasible]
            fixed = self.noise.structural_factors(
                prof.digest, feasible, device, precision
            )
            runs = (cost.seconds[i, cols] * fixed)[:, None] * factors
            mean, std = _mean_std(runs, axis=1)
            gflops = np.zeros(len(cols))
            np.divide(cost.flops[i, cols], mean, out=gflops, where=mean > 0)
            means = mean.tolist()
            samples: Dict[str, Optional[TimingSample]] = {
                fmt: None for fmt in formats
            }
            for fmt, j, seconds, std, rate in zip(
                feasible, cols, means, std.tolist(), (gflops / 1e9).tolist()
            ):
                samples[fmt] = TimingSample(
                    fmt, device, precision, seconds, std, reps, rate,
                    CostBreakdown(*cells[i][j]),
                )
            if feasible and obs.enabled():
                obs.incr("gpu.benchmarks", len(feasible))
                for fmt, seconds in zip(feasible, means):
                    obs.observe(f"gpu.model_seconds.{fmt}", seconds)
            sweeps.append(BenchmarkSweep(samples, fail_i))
        return sweeps

    def benchmark_all(
        self,
        matrix: Union[SparseFormat, MatrixProfile],
        *,
        formats=FORMAT_NAMES,
        reps: int = 50,
    ) -> BenchmarkSweep:
        """Benchmark every format in one batched sweep.

        Returns a :class:`BenchmarkSweep`: still a ``fmt -> sample``
        dict with ``None`` for failed formats, but the profile/analysis
        work is shared across formats (one vectorized pass instead of a
        per-format loop) and ``sweep.failures`` carries the structured
        per-format failure reasons the old API swallowed.
        """
        return self.benchmark_batch([matrix], formats=formats, reps=reps)[0]

    # -- numeric execution ---------------------------------------------------

    def run(
        self,
        matrix: SparseFormat,
        fmt: str,
        x: Optional[np.ndarray] = None,
        *,
        reps: int = 1,
    ) -> tuple:
        """Execute SpMV numerically *and* time it.

        Returns ``(y, sample)`` where ``y`` is the numerically computed
        product using the real format data structures (converted if
        needed) and ``sample`` the :class:`TimingSample`.  This is the
        full-fidelity path used by the examples and integration tests;
        dataset labeling uses :meth:`benchmark` to avoid materialising
        six formats for every corpus matrix.
        """
        prof = self.profile(matrix)
        self.check_feasible(prof, fmt)
        dtype = np.float32 if self.precision == "single" else np.float64
        # Converted formats are cached per (structure digest, fmt, dtype)
        # so repeated runs of the same matrix skip the COO round-trip and
        # format build.  The digest covers structure only, so the cached
        # entry also pins its source object and is bypassed when a
        # different matrix instance shares the structure (same shape and
        # sparsity pattern but possibly different values).
        key = (prof.digest, fmt, np.dtype(dtype).str)
        hit = self._format_cache.get(key)
        if hit is not None and hit[0] is matrix:
            A = hit[1]
            if obs.enabled():
                obs.incr("gpu.format_cache_hits")
        else:
            coo = matrix.to_coo().astype(dtype)
            A = as_format(coo, fmt)
            self._format_cache.put(key, (matrix, A))
            if obs.enabled():
                obs.incr("gpu.format_cache_misses")
        if x is None:
            x = np.ones(matrix.n_cols, dtype=dtype)
        y = A.spmv(np.asarray(x, dtype=dtype))
        sample = self.benchmark(prof, fmt, reps=reps)
        return y, sample
