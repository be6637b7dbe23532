"""Device descriptors for the execution simulator.

The paper's testbeds (Table III) are a Kepler-class Tesla (referred to
as both K40c and K80c in the text) and a Pascal-class Tesla P100.  A
:class:`DeviceSpec` carries the handful of architectural parameters the
SpMV cost models consume; presets reproduce the paper's machines and
users can declare their own.

Beyond the paper's pair, the fleet carries two more presets so the
cross-device selector-transfer question can be asked at all (Chen et
al., "Optimizing SpMV on Emerging Many-Core Architectures", motivates
exactly this roster extension):

* :data:`VOLTA_V100` — a Volta-class Tesla V100 (HBM2, fast atomics),
* :data:`KNL_7250` — a many-core CPU à la Chen et al.'s Knights
  Landing testbed: MCDRAM-class bandwidth, a large distributed L2, no
  GPU-style launch latency but an expensive parallel-region fork, and
  CPU cache-line (64 B) transaction granularity.

SpMV is bandwidth-bound, so the first-order quantities are the DRAM
bandwidth, the L2 capacity available to cache the input vector, and the
latency/occupancy constants that govern how quickly a kernel can reach
streaming speed.  Second-order, architecture-flavoured effects (atomic
throughput for COO-style reductions, kernel launch cost, double-precision
throughput) differentiate the architectures the same way the paper's
measurements do.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

import numpy as np

__all__ = [
    "DeviceSpec",
    "KEPLER_K40C",
    "PASCAL_P100",
    "VOLTA_V100",
    "KNL_7250",
    "DEVICES",
]

#: Architecture families the kernel models know about.  ``"kepler"``
#: and ``"pascal"`` are the paper's; ``"volta"``/``"ampere"`` are later
#: NVIDIA GPU generations (treated generically, differentiated through
#: the numeric descriptor fields); ``"manycore"`` is a wide-vector CPU
#: (KNL / Phytem-class parts à la Chen et al.).
ARCHS = ("kepler", "pascal", "volta", "ampere", "manycore")


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural parameters of a simulated GPU.

    Attributes
    ----------
    name:
        Human-readable device name (also the registry key).
    arch:
        Architecture family, one of :data:`ARCHS` (drives a few
        family-specific kernel constants).
    n_sm:
        Number of streaming multiprocessors.
    cores_per_sm:
        FP32 cores per SM.
    clock_mhz:
        Boost clock in MHz.
    mem_bw_gbps:
        Peak DRAM bandwidth, GB/s.
    l2_bytes:
        L2 cache capacity, bytes.
    global_mem_bytes:
        DRAM capacity (used to reject matrices that wouldn't fit, the
        paper excluded ~400 such SuiteSparse matrices).
    cache_line_bytes:
        Granularity of DRAM/L2 transactions.
    warp_size:
        Threads per warp (32 on all NVIDIA parts).
    launch_overhead_us:
        Fixed cost of one kernel launch, microseconds.
    saturation_bytes:
        Streaming-workload size at which DRAM utilisation reaches 50 %
        (the latency-bandwidth product; governs the small-matrix GFLOPS
        ramp seen in the paper's Fig. 3).
    atomic_efficiency:
        Relative throughput of global atomic updates vs plain stores
        (Pascal's atomics are markedly better than Kepler's).
    fp64_throughput_ratio:
        FP64:FP32 arithmetic rate (1/3 on GK110, 1/2 on GP100).
    bw_efficiency:
        Fraction of the peak bandwidth attainable by a perfectly
        coalesced streaming kernel (ECC + DRAM inefficiency).
    dram_pj_per_byte:
        Energy of moving one byte through the DRAM interface, in
        picojoules (first-order energy-proxy coefficient; HBM parts sit
        well below GDDR).
    pj_per_flop:
        Energy of one useful floating-point operation, picojoules.
    static_watts:
        Static/leakage power charged for the kernel's duration, watts
        (board idle draw attributable to a resident kernel).
    """

    name: str
    arch: str
    n_sm: int
    cores_per_sm: int
    clock_mhz: float
    mem_bw_gbps: float
    l2_bytes: int
    global_mem_bytes: int
    cache_line_bytes: int = 128
    warp_size: int = 32
    launch_overhead_us: float = 4.0
    saturation_bytes: float = 1.5e6
    atomic_efficiency: float = 0.5
    fp64_throughput_ratio: float = 0.5
    bw_efficiency: float = 0.80
    dram_pj_per_byte: float = 22.0
    pj_per_flop: float = 8.0
    static_watts: float = 55.0

    def __post_init__(self) -> None:
        if self.arch not in ARCHS:
            raise ValueError(f"unknown arch {self.arch!r}")
        for attr in ("n_sm", "cores_per_sm", "clock_mhz", "mem_bw_gbps",
                     "l2_bytes", "global_mem_bytes"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")

    # -- derived quantities -------------------------------------------

    @property
    def peak_bandwidth(self) -> float:
        """Peak DRAM bandwidth in bytes/second."""
        return self.mem_bw_gbps * 1e9

    @property
    def stream_bandwidth(self) -> float:
        """Attainable streaming bandwidth (bytes/s) after ECC losses."""
        return self.peak_bandwidth * self.bw_efficiency

    @property
    def clock_hz(self) -> float:
        """Boost clock in Hz."""
        return self.clock_mhz * 1e6

    def peak_gflops(self, precision: str = "single") -> float:
        """Peak FMA GFLOP/s for the given precision."""
        flops = 2.0 * self.n_sm * self.cores_per_sm * self.clock_hz
        if precision == "double":
            flops *= self.fp64_throughput_ratio
        return flops / 1e9

    @property
    def concurrent_threads(self) -> int:
        """Threads resident at full occupancy (2048/SM on these parts)."""
        return self.n_sm * 2048

    def utilization(self, work_bytes):
        """DRAM utilisation reached by a kernel streaming ``work_bytes``.

        Small kernels cannot cover the memory latency with enough
        in-flight requests; utilisation follows a saturating curve
        ``w / (w + saturation_bytes)`` which reproduces the GFLOPS-vs-nnz
        ramp of real SpMV measurements.  ``work_bytes`` may be a scalar
        or an array; the curve applies elementwise.
        """
        w = np.maximum(np.asarray(work_bytes, dtype=np.float64), 0.0)
        return w / (w + self.saturation_bytes)

    def with_overrides(self, **kwargs) -> "DeviceSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **kwargs)


#: The paper's Kepler testbed (Table III quotes 13 SMs / 192 cores/SM /
#: 824 MHz / 12 GB / 1.5 MB L2; GDDR5 bandwidth of the K40-class part).
KEPLER_K40C = DeviceSpec(
    name="Tesla K40c",
    arch="kepler",
    n_sm=13,
    cores_per_sm=192,
    clock_mhz=824.0,
    mem_bw_gbps=288.0,
    l2_bytes=1_572_864,
    global_mem_bytes=12 * 1024**3,
    launch_overhead_us=4.0,
    saturation_bytes=1.2e6,
    atomic_efficiency=0.35,
    fp64_throughput_ratio=1.0 / 3.0,
    bw_efficiency=0.72,
    dram_pj_per_byte=28.0,  # GDDR5
    pj_per_flop=12.0,
    static_watts=70.0,
)

#: The paper's Pascal testbed (56 SMs / 64 cores/SM / 1328 MHz / 16 GB /
#: 4 MB L2, HBM2).
PASCAL_P100 = DeviceSpec(
    name="Tesla P100",
    arch="pascal",
    n_sm=56,
    cores_per_sm=64,
    clock_mhz=1328.0,
    mem_bw_gbps=732.0,
    l2_bytes=4_194_304,
    global_mem_bytes=16 * 1024**3,
    launch_overhead_us=3.0,
    saturation_bytes=2.5e6,
    atomic_efficiency=0.65,
    fp64_throughput_ratio=0.5,
    bw_efficiency=0.78,
    dram_pj_per_byte=10.0,  # HBM2
    pj_per_flop=7.0,
    static_watts=60.0,
)

#: A Volta-class Tesla V100 (80 SMs / 64 cores/SM / 1530 MHz / 16 GB /
#: 6 MB L2, HBM2).  Volta's independent thread scheduling and much
#: faster global atomics narrow the COO/HYB penalty relative to the
#: paper's parts; the larger L2 widens the DIA/BSR locality window.
VOLTA_V100 = DeviceSpec(
    name="Tesla V100",
    arch="volta",
    n_sm=80,
    cores_per_sm=64,
    clock_mhz=1530.0,
    mem_bw_gbps=900.0,
    l2_bytes=6_291_456,
    global_mem_bytes=16 * 1024**3,
    launch_overhead_us=2.5,
    saturation_bytes=3.2e6,
    atomic_efficiency=0.75,
    fp64_throughput_ratio=0.5,
    bw_efficiency=0.82,
    dram_pj_per_byte=9.0,  # HBM2
    pj_per_flop=6.0,
    static_watts=65.0,
)

#: A many-core CPU descriptor à la Chen et al.'s Knights Landing
#: testbed (Xeon Phi 7250: 68 cores, AVX-512 so 16 FP32 lanes/core,
#: 1.4 GHz, 16 GB MCDRAM at ~490 GB/s, 34 MB distributed L2).  CPU
#: transactions move 64-byte cache lines; there is no kernel-launch
#: latency but forking a parallel region costs ~8 µs; global atomics
#: through the mesh are far slower than on a GPU.
KNL_7250 = DeviceSpec(
    name="Xeon Phi 7250",
    arch="manycore",
    n_sm=68,
    cores_per_sm=16,
    clock_mhz=1400.0,
    mem_bw_gbps=490.0,
    l2_bytes=34 * 1024**2,
    global_mem_bytes=16 * 1024**3,
    cache_line_bytes=64,
    launch_overhead_us=8.0,
    saturation_bytes=0.8e6,
    atomic_efficiency=0.20,
    fp64_throughput_ratio=0.5,
    bw_efficiency=0.85,
    dram_pj_per_byte=15.0,  # MCDRAM
    pj_per_flop=9.0,
    static_watts=90.0,
)

#: Registry of preset devices, keyed by short alias.
DEVICES: Dict[str, DeviceSpec] = {
    "k40c": KEPLER_K40C,
    "k80c": KEPLER_K40C,  # the paper uses both names for its Kepler box
    "p100": PASCAL_P100,
    "v100": VOLTA_V100,
    "knl": KNL_7250,
}
