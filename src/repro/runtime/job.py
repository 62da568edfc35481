"""Job configuration and results (the paper's job-configuration stage).

"In the job configuration stage, users specify the parameters for
scheduling the tasks and sub-tasks.  These parameters include the
arithmetic intensity and performance parameters of hardware devices"
(§III.A.2) — the intensity comes from the app, the hardware parameters
from the cluster description, and everything else is a
:class:`JobConfig` knob.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro._validation import (
    require_fraction,
    require_nonnegative,
    require_positive,
    require_positive_int,
)
from typing import TYPE_CHECKING

from repro.core.analytic import SplitDecision
from repro.obs.timeseries import DEFAULT_SAMPLE_INTERVAL
from repro.runtime.recovery import FaultPolicy, RecoverySummary
from repro.simulate.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.iterative import IterationLog
    from repro.simulate.faults import FaultPlan


class Scheduling(enum.Enum):
    """§III.B.2's strategies, now aliases into the policy registry.

    Every member's value is a policy name registered in
    :mod:`repro.runtime.policies`; plain strings (including names of
    externally registered policies) are accepted anywhere a ``Scheduling``
    is, so the enum exists for backwards compatibility and discoverability.
    """

    #: analytic split via Equation (8), then per-device granularities
    STATIC = "static"
    #: fixed-size blocks polled by idle device daemons
    DYNAMIC = "dynamic"
    #: static split whose ``p`` is re-derived between iterations from the
    #: observed per-device rates in the trace (Qilin's §II.B idea, online)
    ADAPTIVE_FEEDBACK = "adaptive-feedback"
    #: block polling that steers GPU-cached blocks back to their daemon
    LOCALITY_DYNAMIC = "locality-dynamic"


@dataclass(frozen=True)
class Overheads:
    """Fixed runtime costs charged by the simulation.

    These model what makes PRS slower than a hand-written MPI+CUDA binary
    in Table 3: key/value bookkeeping per sub-task, kernel-launch /
    dispatch latency, and per-job setup (daemon spawn, context creation).
    """

    #: one-time job setup (spawn daemons, create GPU context) per node
    job_setup_s: float = 0.02
    #: per-subtask dispatch cost on the CPU daemon
    cpu_task_dispatch_s: float = 1e-3
    #: per-subtask launch cost on the GPU daemon (kernel launch + KV copy)
    gpu_task_dispatch_s: float = 2e-4
    #: per-iteration driver overhead (state rebroadcast bookkeeping)
    iteration_s: float = 2e-3
    #: cost of creating/switching a GPU context (§III.C.3: "GPU context
    #: switch is expensive").  Paid once per daemon under PRS's funneled
    #: design; per map task when ``single_gpu_context`` is disabled.
    gpu_context_s: float = 2e-2

    def __post_init__(self) -> None:
        for name in (
            "job_setup_s",
            "cpu_task_dispatch_s",
            "gpu_task_dispatch_s",
            "iteration_s",
            "gpu_context_s",
        ):
            require_nonnegative(name, getattr(self, name))


@dataclass(frozen=True)
class JobConfig:
    """Scheduling knobs for one PRS job."""

    #: sub-task scheduling policy: a :class:`Scheduling` member or any
    #: policy name registered in :mod:`repro.runtime.policies`
    scheduling: Scheduling | str = Scheduling.STATIC
    #: engage the CPU daemon
    use_cpu: bool = True
    #: engage the GPU daemon(s)
    use_gpu: bool = True
    #: GPUs used per node (paper experiments: 1 even on 2-GPU Delta nodes)
    gpus_per_node: int = 1
    #: master-level partitions per node (paper default 2)
    partitions_per_node: int = 2
    #: total dynamic blocks per partition (polling policies only).
    #: ``None`` derives the count from ``MinBs`` of Equation (11): enough
    #: blocks for load balance, but never so many that a GPU block drops
    #: below the saturation size — the "non-trivial" tuning the paper
    #: warns about, answered by its own granularity model.
    dynamic_blocks: int | None = None
    #: Equation (9) overlap threshold for launching streams
    overlap_threshold: float = 0.25
    #: override the analytic CPU fraction (None = use Equation (8))
    force_cpu_fraction: float | None = None
    #: region-based memory management (§III.C.2); False charges one
    #: device-malloc per emitted key/value object instead
    use_region_allocator: bool = True
    #: funnel all GPU work through the daemon's single context (§III.C.3);
    #: False models "every MapReduce task creating its own GPU context" —
    #: each GPU map block then pays ``overheads.gpu_context_s``
    single_gpu_context: bool = True
    #: sort each node's intermediate bucket by key with the app's
    #: ``compare()`` before reducing ("copied/sorted to/in CPU memory",
    #: §III.A.2).  Off by default: grouping does not require it, and apps
    #: with heterogeneous key types (e.g. C-means' cluster ids + the
    #: objective key) have no total order.
    sort_intermediate: bool = False
    #: fixed runtime overheads charged by the simulator
    overheads: Overheads = field(default_factory=Overheads)
    #: fault injection plan: a :class:`repro.simulate.faults.FaultPlan`,
    #: a spec string/dict, or a list of them; ``None`` disables fault
    #: machinery entirely (the zero-fault path stays bit-identical)
    faults: Any = None
    #: retry/backoff/blacklist/heartbeat/checkpoint knobs for recovery
    fault_policy: FaultPolicy = field(default_factory=FaultPolicy)
    #: seed for sampling ranged fault parameters (``lo~hi``)
    fault_seed: int = 0
    #: simulated-clock pitch of the time-series metric sampler
    #: (:mod:`repro.obs.timeseries`); ``None`` disables sampling.  The
    #: sampler is tick-driven pure bookkeeping — schedules, spans and
    #: app outputs are bitwise identical either way.
    sample_interval: float | None = DEFAULT_SAMPLE_INTERVAL
    #: elastic membership: start the job on the first N pool nodes
    #: instead of all of them (``join``/``drain`` events and the
    #: autoscaler then walk the live set within the pool).  ``None``
    #: starts on every node; any value routes the job through the
    #: fault-tolerant/elastic driver.
    initial_nodes: int | None = None
    #: closed-loop autoscaler watching the sampled series: an
    #: :class:`repro.runtime.autoscale.AutoscalePolicy`, a dict of its
    #: fields, or ``True`` for the defaults.  Requires
    #: ``sample_interval`` (decisions read the metric time-series).
    autoscale: Any = None
    #: host-side self-profiling: attribute the simulator's *wall-clock*
    #: cost to subsystems (:mod:`repro.obs.selfprof`) and attach the
    #: resulting :class:`~repro.obs.selfprof.HostProfile` to
    #: ``JobResult.selfprofile``.  Pure host bookkeeping: simulated
    #: schedules, spans, and outputs are bitwise identical either way.
    selfprof: bool = False
    #: structured event logging (:mod:`repro.obs.log`): minimum record
    #: level (``debug``/``info``/``warning``/``error``) or ``None`` to
    #: disable.  The log is a per-rank bounded ring buffer acting as a
    #: flight recorder — pure host bookkeeping (a disabled run's sites
    #: call a do-nothing null log), so simulated schedules, spans, and
    #: outputs are bitwise identical either way (docs/LOGGING.md).
    log_level: str | None = None

    def __post_init__(self) -> None:
        require_positive_int("gpus_per_node", self.gpus_per_node)
        require_positive_int("partitions_per_node", self.partitions_per_node)
        if self.dynamic_blocks is not None:
            require_positive_int("dynamic_blocks", self.dynamic_blocks)
        require_fraction("overlap_threshold", self.overlap_threshold)
        if self.force_cpu_fraction is not None:
            require_fraction("force_cpu_fraction", self.force_cpu_fraction)
        if not (self.use_cpu or self.use_gpu):
            raise ValueError("at least one of use_cpu/use_gpu must be set")
        require_nonnegative("fault_seed", self.fault_seed)
        if self.sample_interval is not None:
            require_positive("sample_interval", self.sample_interval)
        if not isinstance(self.selfprof, bool):
            raise TypeError(
                f"selfprof must be a bool, got {type(self.selfprof).__name__}"
            )
        if self.log_level is not None:
            from repro.obs.log import LEVELS

            if self.log_level not in LEVELS:
                raise ValueError(
                    f"log_level must be one of {sorted(LEVELS)} or None, "
                    f"got {self.log_level!r}"
                )
        if self.faults is not None:
            # Normalize spec strings/dicts into a FaultPlan now so config
            # errors surface at construction, not mid-job.  Deferred
            # import: simulate.faults is a leaf, but keep job.py light.
            from repro.simulate.faults import FaultPlan

            object.__setattr__(
                self, "faults", FaultPlan.coerce(self.faults, seed=self.fault_seed)
            )
        if self.initial_nodes is not None:
            require_positive_int("initial_nodes", self.initial_nodes)
        if self.autoscale is not None:
            from repro.runtime.autoscale import AutoscalePolicy

            object.__setattr__(
                self, "autoscale", AutoscalePolicy.coerce(self.autoscale)
            )
            if self.sample_interval is None:
                raise ValueError(
                    "autoscale requires sample_interval: the autoscaler "
                    "reads the sampled metric time-series"
                )
        # Validate the policy name against the registry (import deferred:
        # the policies package imports runtime modules that import us).
        from repro.runtime.policies import get_policy

        get_policy(self.policy_name)

    @property
    def policy_name(self) -> str:
        """Canonical registry name of the configured scheduling policy."""
        if isinstance(self.scheduling, Scheduling):
            return self.scheduling.value
        return str(self.scheduling)

    def devices_label(self) -> str:
        if self.use_cpu and self.use_gpu:
            return "GPU+CPU"
        return "CPU" if self.use_cpu else "GPU"


@dataclass
class JobResult:
    """Everything a finished PRS job reports."""

    #: final reduce outputs, key -> value
    output: dict[Any, Any]
    #: simulated wall time in seconds
    makespan: float
    #: full execution trace
    trace: Trace
    #: per-node analytic split decisions (static scheduling)
    splits: list[SplitDecision] = field(default_factory=list)
    #: iterations executed (1 for non-iterative apps)
    iterations: int = 1
    #: total flops the devices executed (from the trace)
    total_flops: float = 0.0
    #: simulated bytes exchanged over the network
    network_bytes: float = 0.0
    #: per-iteration timing log (populated for every job; one entry per
    #: driver iteration)
    iteration_log: "IterationLog | None" = None
    #: registry name of the scheduling policy that ran the job
    policy: str = "static"
    #: per co-processing node: the CPU fraction the policy ended on (the
    #: analytic ``p`` for static, the last feedback-derived ``p`` for
    #: adaptive-feedback; ``None`` for pure polling policies)
    final_cpu_fractions: list = field(default_factory=list)
    #: fault-injection/recovery accounting (``None`` when the job ran
    #: without a fault plan)
    recovery: RecoverySummary | None = None
    #: alert-rule firings over the sampled series (empty when sampling
    #: was disabled); :class:`repro.obs.rules.AlertEvent` instances
    alerts: list = field(default_factory=list)
    #: total events the simulation engine scheduled — the deterministic
    #: "simulated work" measure the sampler-overhead benchmark compares
    #: (sampling adds zero engine events by construction)
    engine_events: int = 0
    #: total time-series points the sampler captured (0 when disabled)
    sampler_samples: int = 0
    #: host-side wall-clock profile of the simulator itself
    #: (:class:`repro.obs.selfprof.HostProfile`; None unless the job ran
    #: with ``selfprof=True``)
    selfprofile: Any = None
    #: structured event log of the run (:class:`repro.obs.log.EventLog`
    #: holding the per-rank retained tails and any flight-recorder
    #: dumps; None unless the job ran with ``log_level`` set)
    logs: Any = None

    def phase_breakdown(self, rank: int = 0) -> dict[int, dict[str, float]]:
        """Per-iteration ``{phase: seconds}`` on *rank* (see
        :meth:`repro.simulate.trace.Trace.phase_breakdown`); iteration
        ``-1`` is the one-off setup.  Summing every value reproduces the
        makespan to within the final broadcast latency."""
        return self.trace.phase_breakdown(rank=rank)

    def phase_totals(self, rank: int = 0) -> dict[str, float]:
        """Total seconds per phase across iterations, in execution order."""
        totals: dict[str, float] = {}
        for per_iter in self.phase_breakdown(rank=rank).values():
            for phase, seconds in per_iter.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return totals

    @property
    def gflops(self) -> float:
        """Aggregate achieved GFLOP/s over the job."""
        if self.makespan <= 0:
            return 0.0
        return self.total_flops / self.makespan / 1e9

    def gflops_per_node(self, n_nodes: int) -> float:
        """The Figure 6 y-axis: GFLOP/s per node."""
        require_positive_int("n_nodes", n_nodes)
        return self.gflops / n_nodes

    def analyze(self, top_stragglers: int = 3):
        """Run the post-run trace analytics over this result: critical
        path, imbalance/straggler diagnosis, and the scheduler-decision
        audit with its model-drift series.  Returns a
        :class:`repro.obs.analyze.TraceAnalysis`.
        """
        # Deferred import: obs.analyze is a pure consumer of this module's
        # results and must stay importable without the runtime.
        from repro.obs.analyze import analyze_run

        return analyze_run(self, top_stragglers=top_stragglers)

    def device_fraction(self, device_substr: str) -> float:
        """Fraction of executed flops attributed to devices whose trace
        name contains *device_substr* (e.g. ``"cpu"``) — the measured
        workload distribution the Table 5 benchmark compares against
        Equation (8)."""
        total = self.trace.total_flops()
        if total <= 0:
            return 0.0
        part = sum(
            r.flops for r in self.trace.records if device_substr in r.device
        )
        return part / total
