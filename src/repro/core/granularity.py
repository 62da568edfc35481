"""Equations (9)-(11): task granularity on the GPU and CPU (§III.B.3b).

Having decided *how much* work each device gets (Equation 8), the sub-task
scheduler must decide *how to chop it up*:

* **CPU** — "split the input partition into blocks whose numbers are
  several times those of the CPU cores": good load balance across cores,
  low scheduling overhead.  :func:`cpu_block_count` implements the rule.
* **GPU** — blocks must be large enough to saturate the device, and CUDA
  streams only pay off when the data-transfer time is comparable to the
  kernel time.  Equation (9) gives the transfer share

  .. math::

      op = \\frac{B_s/B_{dram} + B_s/B_{pcie}}
               {B_s/B_{dram} + B_s/B_{pcie} + B_s A_g / P_g}

  and Equation (11) the minimal block size
  :math:`MinB_s = F_{ag}^{-1}(A_{gr})` at which a size-dependent intensity
  profile reaches the GPU ridge point.  :func:`should_use_streams` applies
  the paper's two conditions: ``op`` above a threshold *and* the block
  larger than ``MinBs``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._validation import (
    require_fraction,
    require_positive,
    require_positive_int,
)
from repro.core.intensity import IntensityProfile
from repro.hardware.device import DeviceSpec

#: Default "several times the core count" multiplier for CPU blocks.
DEFAULT_CPU_BLOCK_MULTIPLIER = 4

#: Default overlap threshold above which streams are worth launching.
DEFAULT_OVERLAP_THRESHOLD = 0.25


def overlap_percentage(
    gpu: DeviceSpec, intensity: float | IntensityProfile, block_bytes: float
) -> float:
    """Equation (9): share of a block's life spent moving data.

    ``op`` near 1 means the task is transfer-dominated (streams can hide a
    lot); ``op`` near 0 means compute-dominated (nothing to overlap).  For
    constant-intensity applications ``op`` is independent of block size —
    the ``B_s`` factors cancel — but not for BLAS3-class profiles.
    """
    if not gpu.is_gpu:
        raise ValueError("overlap_percentage is defined for GPUs only")
    require_positive("block_bytes", block_bytes)
    a_g = (
        intensity.at(block_bytes)
        if isinstance(intensity, IntensityProfile)
        else require_positive("intensity", intensity)
    )
    assert gpu.pcie_bandwidth is not None
    transfer = block_bytes / gpu.dram_bandwidth + block_bytes / gpu.pcie_bandwidth
    compute = block_bytes * a_g / gpu.peak_gflops
    return transfer / (transfer + compute)


def min_block_size(gpu: DeviceSpec, profile: IntensityProfile) -> float:
    """Equation (11): minimal block size (bytes) saturating the GPU.

    ``MinBs = F_ag^-1(A_gr)``.  For constant profiles below the ridge this
    raises ``ValueError`` — no block size can reach peak, which is itself
    useful scheduling information (the app is permanently bandwidth-bound
    on this device).
    """
    if not gpu.is_gpu:
        raise ValueError("min_block_size is defined for GPUs only")
    return profile.inverse(gpu.ridge_point(staged=True))


def should_use_streams(
    gpu: DeviceSpec,
    profile: IntensityProfile,
    block_bytes: float,
    overlap_threshold: float = DEFAULT_OVERLAP_THRESHOLD,
) -> bool:
    """The paper's two-condition stream test (§III.B.3b, final paragraph).

    Launch multiple CUDA streams iff (1) the overlap percentage of
    Equation (9) exceeds *overlap_threshold* and (2) the block is larger
    than ``MinBs`` of Equation (11) — splitting a block already below
    saturation size would only lose throughput.
    """
    require_fraction("overlap_threshold", overlap_threshold)
    op = overlap_percentage(gpu, profile, block_bytes)
    if op <= overlap_threshold:
        return False
    try:
        minbs = min_block_size(gpu, profile)
    except ValueError:
        # Peak is unreachable at any size: the block can never saturate the
        # device, so there is no MinBs constraint to violate; overlap alone
        # decides.
        return True
    return block_bytes > minbs


def cpu_block_count(
    cores: int, multiplier: int = DEFAULT_CPU_BLOCK_MULTIPLIER
) -> int:
    """Number of CPU sub-task blocks: ``multiplier x cores`` (§III.B.3b)."""
    require_positive_int("cores", cores)
    require_positive_int("multiplier", multiplier)
    return cores * multiplier


@dataclass(frozen=True)
class GranularityPlan:
    """Complete granularity decision for one node-level partition.

    Attributes
    ----------
    cpu_blocks:
        Number of blocks the CPU sub-partition is chopped into.
    gpu_blocks:
        Number of blocks (streams) for the GPU sub-partition; 1 means a
        single monolithic transfer+kernel.
    use_streams:
        Whether the GPU blocks are issued as overlapping streams.
    overlap:
        The Equation (9) overlap percentage at the chosen GPU block size.
    min_block_bytes:
        ``MinBs`` when defined, else ``None`` (device unsaturable).
    """

    cpu_blocks: int
    gpu_blocks: int
    use_streams: bool
    overlap: float
    min_block_bytes: float | None


def plan_granularity(
    gpu: DeviceSpec,
    cpu_cores: int,
    profile: IntensityProfile,
    gpu_partition_bytes: float,
    *,
    overlap_threshold: float = DEFAULT_OVERLAP_THRESHOLD,
) -> GranularityPlan:
    """Produce the full §III.B.3b granularity plan for one partition.

    GPU side: if streams are worthwhile, split the sub-partition into as
    many blocks as the device has hardware work queues (Fermi: 1 queue but
    copy/compute engines still overlap two streams; we allow
    ``work_queues + 1`` in-flight blocks, Kepler Hyper-Q allows many),
    subject to every block staying above ``MinBs``.
    """
    require_positive("gpu_partition_bytes", gpu_partition_bytes)
    cpu_blocks = cpu_block_count(cpu_cores)

    use = should_use_streams(gpu, profile, gpu_partition_bytes, overlap_threshold)
    try:
        minbs: float | None = min_block_size(gpu, profile)
    except ValueError:
        minbs = None

    if not use:
        gpu_blocks = 1
    else:
        gpu_blocks = gpu.work_queues + 1
        if minbs is not None and minbs > 0:
            # Never split below the saturation size.
            gpu_blocks = min(gpu_blocks, max(1, int(gpu_partition_bytes // minbs)))
        use = gpu_blocks > 1

    overlap = overlap_percentage(gpu, profile, gpu_partition_bytes / max(gpu_blocks, 1))
    return GranularityPlan(
        cpu_blocks=cpu_blocks,
        gpu_blocks=gpu_blocks,
        use_streams=use,
        overlap=overlap,
        min_block_bytes=minbs,
    )
