"""The paper's primary contribution: the roofline-derived analytic scheduler.

This subpackage is a faithful, unit-tested implementation of §III.B.3 of
the paper:

* :mod:`repro.core.intensity` — arithmetic-intensity profiles of SPMD
  applications (constant, or a function of block size as for BLAS3), plus
  the catalogue behind Figure 4.
* :mod:`repro.core.roofline` — the roofline model of Williams et al. as the
  paper instantiates it (Figure 3): attainable performance, ridge points.
* :mod:`repro.core.analytic` — Equations (1)-(8): the optimal CPU/GPU
  workload fraction ``p`` and predicted co-processing time ``T_gc``.
* :mod:`repro.core.granularity` — Equations (9)-(11): transfer/compute
  overlap percentage, minimal GPU block size, stream-usage decision, and
  the CPU block-count rule.
"""

from repro.core.intensity import (
    APPLICATION_INTENSITIES,
    BlockScaledIntensity,
    ConstantIntensity,
    IntensityProfile,
    cmeans_intensity,
    dgemm_intensity,
    gemv_intensity,
    gmm_intensity,
)
from repro.core.roofline import RooflineModel, roofline_curve
from repro.core.analytic import (
    AnalyticModel,
    Regime,
    SplitDecision,
    feedback_split,
    multi_device_split,
    predicted_runtime,
    workload_split,
)
from repro.core.adaptive import (
    AdaptiveDecision,
    AdaptiveMapper,
    LinearFit,
    roofline_slice_timer,
)
from repro.core.network_aware import (
    NetworkAwareSplit,
    coprocessing_gain,
    network_aware_split,
)
from repro.core.granularity import (
    GranularityPlan,
    cpu_block_count,
    min_block_size,
    overlap_percentage,
    plan_granularity,
    should_use_streams,
)

__all__ = [
    "IntensityProfile",
    "ConstantIntensity",
    "BlockScaledIntensity",
    "APPLICATION_INTENSITIES",
    "gemv_intensity",
    "cmeans_intensity",
    "gmm_intensity",
    "dgemm_intensity",
    "RooflineModel",
    "roofline_curve",
    "AnalyticModel",
    "Regime",
    "SplitDecision",
    "workload_split",
    "multi_device_split",
    "feedback_split",
    "predicted_runtime",
    "NetworkAwareSplit",
    "network_aware_split",
    "coprocessing_gain",
    "AdaptiveMapper",
    "AdaptiveDecision",
    "LinearFit",
    "roofline_slice_timer",
    "GranularityPlan",
    "overlap_percentage",
    "min_block_size",
    "should_use_streams",
    "cpu_block_count",
    "plan_granularity",
]
