"""Post-run trace analytics: why was this run exactly this long?

The observability layer records *what* happened (spans, counters); this
package explains *why*:

* :mod:`~repro.obs.analyze.critical_path` — the longest dependency
  chain through the job -> iteration -> phase -> device-block span tree,
  with per-resource attribution and the work + slack = makespan tiling
  invariant;
* :mod:`~repro.obs.analyze.commgraph` — matched send/recv message
  edges: the cross-rank happens-before graph, the src x dst x tag comm
  matrix, and per-link busy timelines; it also powers the network-aware
  critical path (slack split into wait-on-sender / wait-on-network /
  wait-on-compute);
* :mod:`~repro.obs.analyze.imbalance` — busy/idle fractions per device,
  the "finish together" imbalance factor, straggler blocks, steal
  efficiency;
* :mod:`~repro.obs.analyze.audit` — the scheduler-decision log (every
  Equation (1)-(8) split with its inputs and outputs) and the
  predicted-vs-observed model-drift series.

:func:`analyze_run` bundles the first three for a finished
:class:`~repro.runtime.job.JobResult`; :func:`analyze_tracer` covers
saved runs (spans reloaded from a profile JSONL by
``repro.obs.profile.load_profile``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.analyze.audit import (
    SPLIT_KINDS,
    DecisionLog,
    DecisionRecord,
    DriftPoint,
    audited_decisions,
    max_abs_drift,
    model_drift,
    observed_splits,
)
from repro.obs.analyze.commgraph import (
    CommGraph,
    LinkUse,
    Message,
    build_comm_graph,
)
from repro.obs.analyze.critical_path import (
    CriticalPath,
    PathSegment,
    critical_path,
)
from repro.obs.analyze.imbalance import (
    DeviceLoad,
    ImbalanceReport,
    Straggler,
    analyze_imbalance,
    device_loads,
    find_stragglers,
    steal_summary,
)

__all__ = [
    "SPLIT_KINDS",
    "DecisionLog",
    "DecisionRecord",
    "DriftPoint",
    "CommGraph",
    "CriticalPath",
    "LinkUse",
    "Message",
    "PathSegment",
    "DeviceLoad",
    "ImbalanceReport",
    "Straggler",
    "TraceAnalysis",
    "analyze_imbalance",
    "analyze_run",
    "analyze_tracer",
    "audited_decisions",
    "build_comm_graph",
    "critical_path",
    "device_loads",
    "find_stragglers",
    "max_abs_drift",
    "membership_from_tracer",
    "model_drift",
    "observed_splits",
    "steal_summary",
]


def membership_from_tracer(tracer) -> list[dict[str, Any]]:
    """Plain-dict view of the ``membership``-category spans (one per
    epoch transition); saved runs round-trip these as spans, so this
    works on reloaded profiles too."""
    out: list[dict[str, Any]] = []
    for span in tracer.find(category="membership"):
        attrs = span.attrs
        out.append(
            {
                "cause": span.name,
                "time": span.start,
                "epoch": attrs.get("epoch"),
                "node": attrs.get("node"),
                "members": attrs.get("members", ""),
                "detail": attrs.get("detail", ""),
            }
        )
    out.sort(key=lambda m: (m["time"], m["epoch"] if m["epoch"] is not None else -1))
    return out


@dataclass(frozen=True)
class TraceAnalysis:
    """The full post-run diagnosis of one finished run."""

    critical_path: CriticalPath
    imbalance: ImbalanceReport
    drift: tuple[DriftPoint, ...]
    decisions: tuple[dict[str, Any], ...]
    comm: CommGraph | None = None
    #: elastic membership transitions (epoch timeline), read from the
    #: ``membership``-category spans; empty for non-elastic runs
    membership: tuple[dict[str, Any], ...] = ()

    @property
    def makespan(self) -> float:
        return self.critical_path.makespan

    @property
    def max_abs_drift(self) -> float:
        return max_abs_drift(list(self.drift))

    def check(self, tol: float = 1e-6) -> list[str]:
        """Self-consistency problems (empty = healthy profile)."""
        problems = []
        gap = self.critical_path.tiling_gap
        if gap > tol:
            problems.append(
                f"critical path + slack misses the makespan by {gap:.3e} s "
                f"(tolerance {tol:.1e})"
            )
        for seg_a, seg_b in zip(
            self.critical_path.segments, self.critical_path.segments[1:]
        ):
            if abs(seg_a.end - seg_b.start) > tol:
                problems.append(
                    f"critical path discontinuity at {seg_a.end:.6e}s: "
                    f"{seg_a.name!r} -> {seg_b.name!r}"
                )
        decomp = self.critical_path.slack_decomposition()
        decomp_gap = abs(sum(decomp.values()) - self.critical_path.slack)
        if decomp_gap > tol:
            problems.append(
                f"slack decomposition (sender/network/compute) misses "
                f"total slack by {decomp_gap:.3e} s (tolerance {tol:.1e})"
            )
        if self.comm is not None:
            problems.extend(self.comm.check(tol=tol))
        return problems

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload (the ``analysis`` block of ``run --json``)."""
        return {
            "critical_path": self.critical_path.to_dict(),
            "imbalance": self.imbalance.to_dict(),
            "comm": (
                self.comm.to_dict(makespan=self.makespan)
                if self.comm is not None
                else None
            ),
            "model_drift": [p.to_dict() for p in self.drift],
            "max_abs_drift": self.max_abs_drift,
            "decisions": list(self.decisions),
            "membership": list(self.membership),
        }


def analyze_tracer(
    tracer,
    makespan: float | None = None,
    metrics=None,
    audit: DecisionLog | None = None,
    top_stragglers: int = 3,
) -> TraceAnalysis:
    """Analyze a span tracer (live or rebuilt from a saved profile).

    Without *audit* the drift series and decision list are empty —
    exactly what a saved run supports (it keeps no decision log).
    """
    if audit is None:
        audit = DecisionLog()
    comm = build_comm_graph(tracer)
    return TraceAnalysis(
        critical_path=critical_path(tracer, makespan=makespan, comm=comm),
        imbalance=analyze_imbalance(
            tracer,
            makespan=makespan,
            metrics=metrics,
            top_stragglers=top_stragglers,
        ),
        drift=tuple(model_drift(tracer, audit)),
        decisions=tuple(audited_decisions(tracer, audit)),
        comm=comm,
        membership=tuple(membership_from_tracer(tracer)),
    )


def analyze_run(result, top_stragglers: int = 3) -> TraceAnalysis:
    """Analyze a finished :class:`~repro.runtime.job.JobResult`."""
    trace = result.trace
    return analyze_tracer(
        trace.tracer,
        makespan=result.makespan,
        metrics=trace.metrics,
        audit=trace.audit,
        top_stragglers=top_stragglers,
    )
