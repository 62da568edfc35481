"""The PRS observability layer: metrics, spans, and exportable profiles.

StarPU made heterogeneous scheduling trustworthy by capturing execution
history as first-class performance models; this package is that substrate
for PRS.  It has two halves:

* :mod:`repro.obs.metrics` — a labeled metrics registry (counters,
  gauges, bucketed histograms) with Prometheus text exposition; and
* :mod:`repro.obs.spans` — a hierarchical span tracer (job -> iteration
  -> phase -> device-block), saved as profile JSONL
  (:mod:`repro.obs.profile`) and exported as Chrome trace-event JSON
  (Perfetto).

Every :class:`repro.simulate.trace.Trace` owns one of each, so all
existing instrumentation flows into them automatically; the CLI surfaces
them via ``repro metrics``, ``repro trace export`` and ``run --profile``.

:func:`check_profile` is the self-consistency gate CI runs on every
smoke profile: spans must close, durations must be non-negative, children
must stay inside parents, and the per-rank phase spans must tile the
makespan.
"""

from __future__ import annotations

from repro.obs.metrics import (
    ALERTS_TOTAL,
    AUTOSCALE_DECISIONS,
    COMM_BYTES,
    COMM_HEARTBEATS,
    COMM_MESSAGES,
    COMM_RETRANSMITS,
    COMM_TIMEOUTS,
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    DEVICE_BUSY_SECONDS,
    DEVICE_BUSY_UNION_SECONDS,
    DEVICE_BYTES,
    DEVICE_FLOPS,
    DEVICE_TASKS,
    ITERATIONS,
    JOB_ITERATIONS,
    JOB_MAKESPAN_SECONDS,
    MEMBERSHIP_EPOCH,
    MEMBERSHIP_EVENTS,
    MEMBERSHIP_LIVE_RANKS,
    PHASE_SECONDS,
    POLICY_BLOCKS,
    POLICY_CPU_FRACTION,
    POLICY_QUEUE_DEPTH,
    POLICY_QUEUE_DEPTH_CURRENT,
    POLICY_REFITS,
    POLICY_STEALS,
    RECOVERY_BLOCK_FAILURES,
    RECOVERY_BLOCKS_RETRIED,
    RECOVERY_CHECKPOINTS,
    RECOVERY_DEVICES_BLACKLISTED,
    RECOVERY_FAULTS_INJECTED,
    RECOVERY_RANK_RESTARTS,
    RECOVERY_SPLIT_REFITS,
    REGION_BACKING_ALLOCS,
    REGION_BYTES_COPIED,
    REGION_BYTES_SERVED,
    REGION_CAPACITY_BYTES,
    REGION_OBJECT_ALLOCS,
    REGION_RESETS,
    SHUFFLE_BYTES,
    SHUFFLE_PAIRS,
    SPLIT_CPU_FRACTION,
    Counter,
    CounterChild,
    Gauge,
    GaugeChild,
    Histogram,
    HistogramChild,
    IntervalUnion,
    MetricsRegistry,
)
from repro.obs.log import (
    LEVELS,
    NULL_LOG,
    EventLog,
    FlightDump,
    LogRecord,
    NullLog,
    unpaired_errors,
)
from repro.obs.selfprof import (
    NULL_PROFILER,
    HostNode,
    HostProfile,
    NullProfiler,
    SelfProfiler,
)
from repro.obs.spans import Span, SpanTracer
from repro.obs.timeseries import (
    DEFAULT_SAMPLE_INTERVAL,
    DEVICE_BUSY_FRACTION,
    DEVICE_IMBALANCE,
    LINK_MODEL_RATIO,
    LINK_UTILIZATION,
    MetricSampler,
    Series,
    SeriesBank,
)

__all__ = [
    "Counter",
    "CounterChild",
    "EventLog",
    "FlightDump",
    "Gauge",
    "GaugeChild",
    "Histogram",
    "HistogramChild",
    "HostNode",
    "HostProfile",
    "IntervalUnion",
    "LEVELS",
    "LogRecord",
    "MetricSampler",
    "MetricsRegistry",
    "NULL_LOG",
    "NULL_PROFILER",
    "NullLog",
    "NullProfiler",
    "SelfProfiler",
    "Series",
    "SeriesBank",
    "Span",
    "SpanTracer",
    "check_profile",
    "phase_makespan_gap",
    "unpaired_errors",
    "ALERTS_TOTAL",
    "AUTOSCALE_DECISIONS",
    "COMM_BYTES",
    "COMM_HEARTBEATS",
    "COMM_MESSAGES",
    "COMM_RETRANSMITS",
    "COMM_TIMEOUTS",
    "COUNT_BUCKETS",
    "DEFAULT_BUCKETS",
    "DEVICE_BUSY_SECONDS",
    "DEVICE_BUSY_UNION_SECONDS",
    "DEVICE_BYTES",
    "DEVICE_FLOPS",
    "DEVICE_TASKS",
    "ITERATIONS",
    "JOB_ITERATIONS",
    "JOB_MAKESPAN_SECONDS",
    "MEMBERSHIP_EPOCH",
    "MEMBERSHIP_EVENTS",
    "MEMBERSHIP_LIVE_RANKS",
    "PHASE_SECONDS",
    "POLICY_BLOCKS",
    "POLICY_CPU_FRACTION",
    "DEFAULT_SAMPLE_INTERVAL",
    "DEVICE_BUSY_FRACTION",
    "DEVICE_IMBALANCE",
    "LINK_MODEL_RATIO",
    "LINK_UTILIZATION",
    "POLICY_QUEUE_DEPTH",
    "POLICY_QUEUE_DEPTH_CURRENT",
    "POLICY_REFITS",
    "POLICY_STEALS",
    "RECOVERY_BLOCK_FAILURES",
    "RECOVERY_BLOCKS_RETRIED",
    "RECOVERY_CHECKPOINTS",
    "RECOVERY_DEVICES_BLACKLISTED",
    "RECOVERY_FAULTS_INJECTED",
    "RECOVERY_RANK_RESTARTS",
    "RECOVERY_SPLIT_REFITS",
    "REGION_BACKING_ALLOCS",
    "REGION_BYTES_COPIED",
    "REGION_BYTES_SERVED",
    "REGION_CAPACITY_BYTES",
    "REGION_OBJECT_ALLOCS",
    "REGION_RESETS",
    "SHUFFLE_BYTES",
    "SHUFFLE_PAIRS",
    "SPLIT_CPU_FRACTION",
]


def phase_makespan_gap(trace, makespan: float) -> float:
    """|makespan - max over ranks of that rank's phase-span sum|.

    Phases run back-to-back on each rank from t=0, so each rank's span
    sum telescopes to its finish time and the slowest rank's sum *is*
    the job makespan (up to float rounding).  The returned gap is the
    quantity the acceptance check bounds by 1e-6.
    """
    sums: dict[int, float] = {}
    for span in trace.phase_spans:
        rank = span.attrs["rank"]
        sums[rank] = sums.get(rank, 0.0) + span.duration
    if not sums:
        return abs(makespan)
    return abs(makespan - max(sums.values()))


def check_profile(trace, makespan: float, tol: float = 1e-6) -> list[str]:
    """Self-consistency checks over a finished run's observability data.

    Returns a list of human-readable problems; an empty list means the
    profile is internally consistent:

    * every span closed, with non-negative duration;
    * children contained in their parents (span nesting);
    * per-rank phase spans sum to the makespan within *tol*;
    * no device busy-time exceeding the makespan.
    """
    problems = trace.tracer.check_consistency(tol=tol)

    gap = phase_makespan_gap(trace, makespan)
    if gap > tol:
        problems.append(
            f"phase spans do not tile the makespan: gap {gap:.3e} s "
            f"exceeds {tol:.0e} s"
        )

    for device in trace.devices():
        busy = trace.busy_time(device)
        if busy > makespan + tol:
            problems.append(
                f"device {device!r} busy {busy:.6f} s exceeds makespan "
                f"{makespan:.6f} s"
            )
    return problems
