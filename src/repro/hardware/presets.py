"""Calibrated device presets for the paper's two test systems (Table 4).

Calibration notes
-----------------
The paper never prints the raw roofline parameters it used ("shown in
Figure 3 (1)", which is an image); we recover them from vendor data sheets
plus the constraints the paper's own numbers impose:

* **Delta CPU** — 2x Intel Xeon X5660 (6 cores @ 2.8 GHz each).  Peak
  double-precision rate is 12 cores x 2.8 GHz x 4 flops/cycle = 134.4
  GFLOP/s; we use 130 GFLOP/s to fold in a small efficiency haircut.
  Sustained DRAM (stream) bandwidth of the dual-socket Westmere platform is
  about 32 GB/s.
* **Delta GPU** — NVIDIA Tesla C2070 (Fermi): 1030 GFLOP/s single
  precision, 144 GB/s GDDR5.  The *effective* PCI-E bandwidth is the one
  free parameter: the paper reports that GEMV assigns p = 97.3 % of the
  work to the CPU and that "data staging overhead between GPU and CPU cost
  more than 90 % of its overall overhead".  Working Equation (8) backwards
  with A = 2 flops/byte gives an effective staging bandwidth near 0.9 GB/s
  — consistent with pageable (non-pinned) host buffers over PCI-E gen 2,
  which is what a portable runtime staging arbitrary user buffers sees.
  We use 0.93 GB/s.
* **BigRed2** — NVIDIA K20 (Kepler, Hyper-Q: 32 hardware queues): 3520
  GFLOP/s single precision, 208 GB/s; AMD Opteron host with 32 cores per
  node per Table 4; interlagos-class cores at ~2.6 GHz give roughly 330
  GFLOP/s peak, and ~52 GB/s of DRAM bandwidth.

Cross-checks against the paper (reproduced in ``tests/hardware`` and the
Table 5 benchmark): with these presets Equation (8) yields p = 97.3 % for
GEMV (A=2, staged), and p = 11.2 % for C-means (A=500, resident) and GMM
(A=6600, resident) on a Delta node — the exact values in Table 5.
"""

from __future__ import annotations

from repro.hardware.cluster import Cluster, NetworkSpec
from repro.hardware.device import CpuSpec, DeviceSpec, GpuSpec
from repro.hardware.node import FatNode

GIB = 1024**3

# ---------------------------------------------------------------------------
# Device specs
# ---------------------------------------------------------------------------


def xeon_x5660_pair() -> DeviceSpec:
    """Dual-socket Intel Xeon X5660 (12 cores) of a Delta node."""
    return CpuSpec(
        name="2x Intel Xeon X5660",
        peak_gflops=130.0,
        dram_bandwidth=32.0,
        cores=12,
        memory_bytes=192 * GIB,
    )


def tesla_c2070() -> DeviceSpec:
    """NVIDIA Tesla C2070 (Fermi) as attached to a Delta node."""
    return GpuSpec(
        name="Tesla C2070",
        peak_gflops=1030.0,
        dram_bandwidth=144.0,
        pcie_bandwidth=0.93,
        cores=448,
        memory_bytes=6 * GIB,
        work_queues=1,
        copy_engines=2,
    )


def opteron_6212_host() -> DeviceSpec:
    """AMD Opteron host CPU complex of a BigRed2 node (32 cores)."""
    return CpuSpec(
        name="AMD Opteron 6212 (32 cores)",
        peak_gflops=330.0,
        dram_bandwidth=52.0,
        cores=32,
        memory_bytes=62 * GIB,
    )


def tesla_k20() -> DeviceSpec:
    """NVIDIA Tesla K20 (Kepler, Hyper-Q) of a BigRed2 node."""
    return GpuSpec(
        name="Tesla K20",
        peak_gflops=3520.0,
        dram_bandwidth=208.0,
        pcie_bandwidth=3.0,
        cores=2496,
        memory_bytes=5 * GIB,
        work_queues=32,
        copy_engines=2,
    )


def xeon_phi_5110p() -> DeviceSpec:
    """Intel Xeon Phi 5110P (MIC) as a PCI-E attached accelerator.

    The paper lists "extend the framework to other backend or
    accelerators, such as OpenCL, MIC" as future work (§V).  From the
    scheduler's perspective a Knights Corner card is roofline-equivalent
    to a GPU: a throughput device behind PCI-E with its own GDDR5 —
    2022 SP GFLOP/s, 320 GB/s, 60 cores x 4 threads.  The analytic model
    and the device daemons work on it unchanged, which is exactly the
    generality claim of the paper's model.
    """
    return GpuSpec(
        name="Xeon Phi 5110P",
        peak_gflops=2022.0,
        dram_bandwidth=320.0,
        pcie_bandwidth=3.0,
        cores=240,
        memory_bytes=8 * GIB,
        work_queues=16,
    )


def mic_node(name: str = "mic") -> FatNode:
    """A fat node pairing the Delta host CPUs with a Xeon Phi card."""
    return FatNode(name=name, cpu=xeon_x5660_pair(), gpus=(xeon_phi_5110p(),))


# ---------------------------------------------------------------------------
# Node / cluster presets
# ---------------------------------------------------------------------------


def delta_node(name: str = "delta", n_gpus: int = 2) -> FatNode:
    """One FutureGrid *Delta* fat node: 2x C2070 + 12 Xeon cores.

    The paper's experiments use a single GPU per node; pass ``n_gpus=1`` to
    match that configuration (the Figure 6 / Table 3 benchmarks do).
    """
    return FatNode(
        name=name,
        cpu=xeon_x5660_pair(),
        gpus=tuple(tesla_c2070() for _ in range(n_gpus)),
    )


def bigred2_node(name: str = "bigred2") -> FatNode:
    """One IU *BigRed2* fat node: 1x K20 + 32 Opteron cores."""
    return FatNode(name=name, cpu=opteron_6212_host(), gpus=(tesla_k20(),))


def delta_cluster(n_nodes: int = 4, n_gpus: int = 1) -> Cluster:
    """A Delta cluster; defaults to the 4-node setup of Table 3."""
    nodes = tuple(
        delta_node(name=f"delta{i:02d}", n_gpus=n_gpus) for i in range(n_nodes)
    )
    # FutureGrid Delta used QDR InfiniBand: ~2 us latency, ~3.2 GB/s.
    return Cluster(
        name="delta", nodes=nodes, network=NetworkSpec(latency=2e-6, bandwidth=3.2)
    )


def bigred2_cluster(n_nodes: int = 4) -> Cluster:
    """A BigRed2 cluster (Gemini interconnect-class parameters)."""
    nodes = tuple(bigred2_node(name=f"br2-{i:02d}") for i in range(n_nodes))
    return Cluster(
        name="bigred2", nodes=nodes, network=NetworkSpec(latency=1.5e-6, bandwidth=6.0)
    )

