"""Workload description consumed by the closed-form baseline models."""

from __future__ import annotations

from dataclasses import dataclass

from repro._validation import require_nonnegative, require_positive, require_positive_int
from repro.core.intensity import IntensityProfile


@dataclass(frozen=True)
class WorkloadSpec:
    """What a baseline runtime needs to know about a job.

    Parameters
    ----------
    total_bytes:
        Input size ``M`` in bytes across the whole cluster.
    intensity:
        Arithmetic-intensity profile of the computation.
    iterations:
        Driver iterations (1 for single-pass jobs like GEMV).
    state_bytes:
        Bytes allreduced per iteration (cluster centers etc.).
    resident:
        True when loop-invariant input stays cached in GPU memory after
        the first iteration (iterative apps, paper §III.C.3).
    """

    total_bytes: float
    intensity: IntensityProfile
    iterations: int = 1
    state_bytes: float = 4096.0
    resident: bool = False

    def __post_init__(self) -> None:
        require_positive("total_bytes", self.total_bytes)
        require_positive_int("iterations", self.iterations)
        require_nonnegative("state_bytes", self.state_bytes)

    def flops(self) -> float:
        """Total flops per iteration."""
        return self.intensity.flops(self.total_bytes)
