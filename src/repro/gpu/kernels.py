"""Scalar entry point of the kernel cost models.

The models themselves live in :mod:`repro.gpu.batch`, one vectorised,
parameterised function per format (see its module docstring for the
physics).  :func:`estimate_time` evaluates one (matrix, format) pair as
a batch of one; :data:`KERNEL_MODELS` is the format registry.
"""

from __future__ import annotations

import numpy as np

from .batch import KERNEL_MODELS, CostBreakdown, estimate_batch
from .device import DeviceSpec
from .profile import MatrixProfile

__all__ = ["CostBreakdown", "estimate_time", "KERNEL_MODELS"]


def estimate_time(
    fmt: str, profile: MatrixProfile, device: DeviceSpec, precision: str = "single"
) -> CostBreakdown:
    """Estimate one SpMV invocation of ``fmt`` on ``device``.

    ``fmt`` is a format name or a tuning configuration key
    (``"hyb?split=2"``).  Raises ``KeyError`` for unknown formats,
    ``ValueError`` for an unknown precision and ``ZeroDivisionError``
    for a degenerate cell the batch reports as non-finite (HYB with
    traffic but nothing to store).
    """
    cost = estimate_batch([profile], (fmt,), device, precision)
    if not np.isfinite(cost.seconds[0, 0]):
        raise ZeroDivisionError("float division by zero")
    return cost.at(0, 0)
