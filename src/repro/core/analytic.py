"""Equations (1)-(8): the analytic workload-distribution model.

This is the core result of the paper.  Given the roofline parameters of a
fat node and the arithmetic intensity of an SPMD application, the model
computes — *without running any test jobs* — the fraction ``p`` of the
input that the CPU should process so that CPU and GPU finish together:

.. math::

    T_{gc} = \\max(T_{c\\_p}, T_{g\\_p}),\\qquad
    T_{c\\_p} = p M A_c / F_c,\\qquad
    T_{g\\_p} = (1-p) M A_g / F_g

Setting :math:`T_{c\\_p} = T_{g\\_p}` (the linear-programming optimum,
Equation 4) gives

.. math::

    p = \\frac{A_g F_c}{A_g F_c + A_c F_g}
    \\;\\;\\xrightarrow{A_c \\cong A_g}\\;\\;
    p = \\frac{F_c}{F_c + F_g}   \\qquad (5)

with the attainable rates :math:`F_c, F_g` supplied by the roofline
(Equations 6/7).  Substituting the three roofline regimes yields the three
branches of Equation (8); :func:`workload_split` reports which branch
applied via :class:`Regime`.

Note on Equation (8) as printed: the first two branches in the paper carry
``A_g * (1/B_pcie + 1/B_dram)`` where dimensional analysis (and Equations
4-7, from which 8 is derived) requires ``A_g / (1/B_pcie + 1/B_dram)`` in
the denominator's *other* position — i.e. the GPU's attainable flop rate is
``A_g * B_combined`` with ``B_combined = 1/(1/B_dram + 1/B_pcie)``.  We
implement the dimensionally consistent derivation; the printed form is a
typesetting slip (flops/byte times s/byte is not a flop rate).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro._validation import require_fraction, require_positive
from repro.core.intensity import IntensityProfile
from repro.core.roofline import RooflineModel
from repro.hardware.cluster import Cluster
from repro.hardware.device import DeviceSpec
from repro.hardware.node import FatNode


class Regime(enum.Enum):
    """Which branch of Equation (8) the application falls in."""

    #: ``A < A_cr`` — both devices bandwidth-bound (e.g. word count, GEMV)
    BELOW_CPU_RIDGE = "A < A_cr"
    #: ``A_cr <= A < A_gr`` — CPU at peak, GPU still bandwidth-bound
    BETWEEN_RIDGES = "A_cr <= A < A_gr"
    #: ``A >= A_gr`` — both devices compute-bound (e.g. DGEMM, GMM)
    ABOVE_GPU_RIDGE = "A >= A_gr"


@dataclass(frozen=True)
class SplitDecision:
    """Result of the analytic workload-distribution model for one node.

    Attributes
    ----------
    p:
        Fraction of the input bytes assigned to the CPU (Equation 8).
    cpu_rate / gpu_rate:
        Attainable rates ``F_c`` / ``F_g`` in GFLOP/s (Equations 6/7).
    regime:
        The Equation-(8) branch that applied (classified on the GPU-side
        intensity, as in the paper's Figure 3 discussion).
    cpu_ridge / gpu_ridge:
        ``A_cr`` and ``A_gr`` in flops/byte.
    """

    p: float
    cpu_rate: float
    gpu_rate: float
    regime: Regime
    cpu_ridge: float
    gpu_ridge: float

    @property
    def gpu_fraction(self) -> float:
        """Fraction of the input bytes assigned to the GPU (``1 - p``)."""
        return 1.0 - self.p


def _intensity_value(intensity: float | IntensityProfile, nbytes: float) -> float:
    if isinstance(intensity, IntensityProfile):
        return intensity.at(nbytes)
    require_positive("intensity", intensity)
    return float(intensity)


def workload_split(
    node: FatNode,
    intensity: float | IntensityProfile,
    *,
    gpu_intensity: float | IntensityProfile | None = None,
    staged: bool = True,
    partition_bytes: float = 1e9,
) -> SplitDecision:
    """Compute the optimal CPU fraction ``p`` for one fat node (Equation 8).

    Parameters
    ----------
    node:
        The fat node; its first GPU is used (the paper's configuration).
    intensity:
        Arithmetic intensity ``A_c`` of the CPU implementation — a number
        or an :class:`IntensityProfile` evaluated at *partition_bytes*.
    gpu_intensity:
        Intensity ``A_g`` of the GPU implementation when it differs from
        the CPU one ("they could be different due to different algorithm
        implementations", §III.B.3a); defaults to *intensity*.
    staged:
        ``True`` when GPU input starts in host memory (pays PCI-E);
        ``False`` for iterative applications whose input is resident in
        GPU memory (paper §IV.B).
    partition_bytes:
        Block size at which size-dependent intensity profiles are
        evaluated; irrelevant for constant profiles.

    Returns
    -------
    SplitDecision
        ``p``, the attainable rates, and the regime classification.
    """
    require_positive("partition_bytes", partition_bytes)
    a_c = _intensity_value(intensity, partition_bytes)
    a_g = _intensity_value(
        gpu_intensity if gpu_intensity is not None else intensity, partition_bytes
    )

    cpu_model = RooflineModel(node.cpu, staged=True)
    gpu_model = RooflineModel(node.gpu, staged=staged)

    f_c = cpu_model.attainable(a_c)
    f_g = gpu_model.attainable(a_g)

    # Equal-finish-time optimum (general form of Equation 5).
    p = (a_g * f_c) / (a_g * f_c + a_c * f_g)

    a_cr = cpu_model.ridge
    a_gr = gpu_model.ridge
    # Regime classification per Figure 3 (A_cr < A_gr when staging via
    # PCI-E; with resident data the ordering can flip, so classify by
    # explicit comparison with each ridge).
    if a_c < a_cr and a_g < a_gr:
        regime = Regime.BELOW_CPU_RIDGE
    elif a_g < a_gr:
        regime = Regime.BETWEEN_RIDGES
    else:
        regime = Regime.ABOVE_GPU_RIDGE

    return SplitDecision(
        p=p,
        cpu_rate=f_c,
        gpu_rate=f_g,
        regime=regime,
        cpu_ridge=a_cr,
        gpu_ridge=a_gr,
    )


def predicted_runtime(
    node: FatNode,
    intensity: float | IntensityProfile,
    nbytes: float,
    p: float,
    *,
    gpu_intensity: float | IntensityProfile | None = None,
    staged: bool = True,
) -> float:
    """Equations (1)-(3): predicted co-processing time for CPU fraction *p*.

    ``T_gc = max(p*M*A_c/F_c, (1-p)*M*A_g/F_g)`` in seconds; *nbytes* is
    the input size ``M`` in bytes.
    """
    require_positive("nbytes", nbytes)
    require_fraction("p", p)
    a_c = _intensity_value(intensity, nbytes)
    a_g = _intensity_value(
        gpu_intensity if gpu_intensity is not None else intensity, nbytes
    )
    f_c = RooflineModel(node.cpu, staged=True).attainable(a_c)
    f_g = RooflineModel(node.gpu, staged=staged).attainable(a_g)
    t_cpu = p * nbytes * a_c / (f_c * 1e9)
    t_gpu = (1.0 - p) * nbytes * a_g / (f_g * 1e9)
    return max(t_cpu, t_gpu)


def multi_device_split(
    devices: list[DeviceSpec],
    intensity: float | IntensityProfile,
    *,
    staged: bool = True,
    partition_bytes: float = 1e9,
) -> list[float]:
    """Equal-finish-time fractions across an arbitrary device set.

    Generalises Equation (5): each device's share is proportional to its
    byte-processing rate ``F_i / A_i``.  Covers fat nodes with several
    GPUs (Delta has two per host) and the paper's future-work case of
    heterogeneous fat nodes.
    """
    if not devices:
        raise ValueError("devices must be non-empty")
    rates = []
    for dev in devices:
        a = _intensity_value(intensity, partition_bytes)
        f = RooflineModel(dev, staged=staged if dev.is_gpu else True).attainable(a)
        rates.append(f / a)
    total = sum(rates)
    return [r / total for r in rates]


def node_partition_weights(
    cluster: Cluster,
    intensity: float | IntensityProfile,
    *,
    staged: bool = True,
    partition_bytes: float = 1e9,
    use_cpu: bool = True,
    gpus_per_node: int | None = None,
) -> list[float]:
    """Input-partition weights across the cluster's (possibly inhomogeneous)
    fat nodes, as the master's task scheduler applies Equation (8) at the
    node level (§III.B.3a).

    Each node's weight is proportional to the aggregate byte rate of the
    devices it will engage.  For a homogeneous cluster this collapses to
    the uniform split.
    """
    weights = []
    for node in cluster.nodes:
        devices: list[DeviceSpec] = []
        if use_cpu:
            devices.append(node.cpu)
        n_g = len(node.gpus) if gpus_per_node is None else min(
            gpus_per_node, len(node.gpus)
        )
        devices.extend(node.gpus[:n_g])
        if not devices:
            weights.append(0.0)
            continue
        rate = 0.0
        for dev in devices:
            a = _intensity_value(intensity, partition_bytes)
            f = RooflineModel(dev, staged=staged if dev.is_gpu else True).attainable(a)
            rate += f / a
        weights.append(rate)
    total = sum(weights)
    if total <= 0:
        raise ValueError("no compute devices engaged on any node")
    return [w / total for w in weights]


def feedback_split(
    a_c: float,
    a_g: float,
    cpu_rate: float,
    gpu_rate: float,
) -> float:
    """Equation (5), general form, fed with *observed* rates.

    ``p = A_g F_c / (A_g F_c + A_c F_g)`` with ``F_c``/``F_g`` measured
    rather than predicted.  Degenerate observations (an idle device) pin
    the split to the device that demonstrably works.
    """
    require_positive("a_c", a_c)
    require_positive("a_g", a_g)
    if cpu_rate <= 0.0 and gpu_rate <= 0.0:
        raise ValueError("feedback_split: both observed rates are zero")
    if cpu_rate <= 0.0:
        return 0.0
    if gpu_rate <= 0.0:
        return 1.0
    return (a_g * cpu_rate) / (a_g * cpu_rate + a_c * gpu_rate)


@dataclass(frozen=True)
class AnalyticModel:
    """Convenience bundle: one node + one application intensity profile.

    Wraps the module-level functions with the node/profile pre-bound, which
    is how the PRS static scheduler consumes the model.
    """

    node: FatNode
    intensity: IntensityProfile
    gpu_intensity: IntensityProfile | None = None
    staged: bool = True

    def split(self, partition_bytes: float = 1e9) -> SplitDecision:
        return workload_split(
            self.node,
            self.intensity,
            gpu_intensity=self.gpu_intensity,
            staged=self.staged,
            partition_bytes=partition_bytes,
        )

    def runtime(self, nbytes: float, p: float | None = None) -> float:
        if p is None:
            p = self.split(nbytes).p
        return predicted_runtime(
            self.node,
            self.intensity,
            nbytes,
            p,
            gpu_intensity=self.gpu_intensity,
            staged=self.staged,
        )

    def speedup_over_gpu_only(self, nbytes: float = 1e9) -> float:
        """Predicted T_g / T_gc — the paper's headline co-processing gains.

        For GEMV this is ~11x (the "1011.8%" claim), for C-means ~1.12x,
        for GMM ~1.12x on the Delta presets.
        """
        t_gpu_only = predicted_runtime(
            self.node,
            self.intensity,
            nbytes,
            0.0,
            gpu_intensity=self.gpu_intensity,
            staged=self.staged,
        )
        return t_gpu_only / self.runtime(nbytes)
