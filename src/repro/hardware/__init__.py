"""Hardware substrate: device, node, and cluster descriptions.

The paper evaluates PRS on clusters of "fat nodes" — hosts that pair
multi-core CPUs with one or more discrete GPUs.  This subpackage models
those resources with exactly the parameters the paper's analytic scheduler
consumes (Table 2 of the paper): peak floating-point rate, DRAM bandwidth,
and PCI-E bandwidth, plus structural facts (core counts, memory sizes,
number of hardware work queues) used by the simulator.

The module deliberately contains *no* timing logic; it is a pure
description layer.  Timing lives in :mod:`repro.core.roofline` (analytic)
and :mod:`repro.simulate` (discrete-event).
"""

from repro.hardware.device import CpuSpec, DeviceKind, DeviceSpec, GpuSpec
from repro.hardware.node import FatNode
from repro.hardware.cluster import Cluster
from repro.hardware.presets import (
    bigred2_node,
    bigred2_cluster,
    delta_node,
    delta_cluster,
    mic_node,
    xeon_phi_5110p,
)

__all__ = [
    "DeviceKind",
    "DeviceSpec",
    "CpuSpec",
    "GpuSpec",
    "FatNode",
    "Cluster",
    "delta_node",
    "delta_cluster",
    "bigred2_node",
    "bigred2_cluster",
    "mic_node",
    "xeon_phi_5110p",
]
