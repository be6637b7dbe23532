"""GPU execution simulator (stand-in for the paper's K40c/K80c and P100).

The subpackage provides:

* :class:`~repro.gpu.device.DeviceSpec` with the paper's presets
  :data:`~repro.gpu.device.KEPLER_K40C` and
  :data:`~repro.gpu.device.PASCAL_P100` (Table III) plus the fleet
  extensions :data:`~repro.gpu.device.VOLTA_V100` and
  :data:`~repro.gpu.device.KNL_7250` (à la Chen et al.),
* :func:`~repro.gpu.profile.profile_matrix` — the one-pass structural
  analysis feeding the cost models,
* :func:`~repro.gpu.batch.estimate_batch` — the per-format kernel cost
  models evaluated as one N×F sweep: one vectorised call per format
  covers all of that format's configurations, and the parsed keys and
  column layout come from a plan cached per key tuple;
  :func:`~repro.gpu.kernels.estimate_time` is the same sweep for one
  (matrix, format) pair,
* :class:`~repro.gpu.executor.SpMVExecutor` — the measurement harness
  implementing the paper's 50-repetition averaging protocol, with
  simulated OOM / kernel-failure modes and calibrated noise; its
  :meth:`~repro.gpu.executor.SpMVExecutor.sweep` derives every
  feasibility mask from the same pass as the costs, and
  :meth:`~repro.gpu.executor.SpMVExecutor.benchmark_batch` sweeps whole
  corpora through it.

See DESIGN.md ("Substitutions") for why an analytical simulator
preserves the behaviour the ML study depends on.
"""

from .batch import (  # noqa: F401
    CostBreakdownBatch,
    ProfileBatch,
    estimate_batch,
)
from .cache import gather_traffic_bytes, gather_traffic_bytes_batch  # noqa: F401
from .device import (  # noqa: F401
    DEVICES,
    DeviceSpec,
    KEPLER_K40C,
    KNL_7250,
    PASCAL_P100,
    VOLTA_V100,
)
from .executor import (  # noqa: F401
    BenchmarkSweep,
    FormatFailure,
    KernelFailure,
    OutOfMemoryError,
    SimulationError,
    SpMVExecutor,
    TimingSample,
)
from .kernels import KERNEL_MODELS, CostBreakdown, estimate_time  # noqa: F401
from .noise import NoiseModel  # noqa: F401
from .profile import GatherStats, MatrixProfile, profile_matrix  # noqa: F401

__all__ = [
    "DeviceSpec",
    "KEPLER_K40C",
    "PASCAL_P100",
    "VOLTA_V100",
    "KNL_7250",
    "DEVICES",
    "MatrixProfile",
    "GatherStats",
    "profile_matrix",
    "gather_traffic_bytes",
    "gather_traffic_bytes_batch",
    "CostBreakdown",
    "CostBreakdownBatch",
    "ProfileBatch",
    "estimate_time",
    "estimate_batch",
    "KERNEL_MODELS",
    "NoiseModel",
    "SpMVExecutor",
    "TimingSample",
    "BenchmarkSweep",
    "FormatFailure",
    "SimulationError",
    "OutOfMemoryError",
    "KernelFailure",
]
