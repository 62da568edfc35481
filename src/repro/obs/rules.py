"""Declarative SLO/alert rules over sampled time-series.

A :class:`Rule` names a windowed signal — ``"max(prs_policy_queue_depth_current{policy=dynamic})"``
— and a threshold; :func:`evaluate_rules` walks the sampled grid of a
:class:`~repro.obs.timeseries.SeriesBank` and turns every run of
samples where the condition holds for at least ``for_s`` simulated
seconds into an :class:`AlertEvent`.  :func:`record_alerts` then writes
each event back into the run's observability plane: one retrospective
``alert``-category span on the ``alerts`` track plus a
``prs_alerts_total{rule,severity}`` counter increment.

Everything here runs *after* the simulation has drained — rules read
sampled history, never live state — so rule evaluation can never
perturb a schedule, and re-evaluating a saved profile gives exactly the
alerts of the live run.

Evaluation has one path.  A series whose extreme values cannot meet a
rule's condition is skipped whole; any other series is read point by
point, each point's window cut from the expanded samples by bisection,
with the same float folds as the :class:`Series` aggregators.

Expression syntax
-----------------
``func(metric)`` or ``func(metric{label=value,label2=value2})`` with
``func`` one of ``value``, ``rate``, ``increase``, ``mean``, ``max``,
``min``, ``p50``, ``p99``.  The label set selects matching series by
subset — each matching series is evaluated independently, so one rule
can fire per device, per link, per policy ...  ``value`` reads the
latest sample; the windowed functions aggregate over ``[t - window,
t]`` at each sample instant ``t``.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import (
    ALERTS_TOTAL,
    MEMBERSHIP_EVENTS,
    POLICY_QUEUE_DEPTH_CURRENT,
    MetricsRegistry,
)
from repro.obs.timeseries import (
    DEVICE_IMBALANCE,
    LINK_MODEL_RATIO,
    Series,
    SeriesBank,
    sorted_quantile,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.spans import SpanTracer

#: span track alert spans land on (their own lane in exports)
ALERTS_TRACK = "alerts"

#: span category of alert spans — analysis passes (critical path,
#: imbalance, comm pairing) skip this category entirely.
ALERT_CATEGORY = "alert"

_EXPR_RE = re.compile(
    r"^\s*(?P<func>[a-z][a-z0-9]*)\s*\(\s*"
    r"(?P<metric>[a-zA-Z_:][a-zA-Z0-9_:]*)\s*"
    r"(?:\{(?P<labels>[^}]*)\})?\s*\)\s*$"
)

_FUNCS = ("value", "rate", "increase", "mean", "max", "min", "p50", "p99")

_OPS = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


def parse_expr(expr: str) -> tuple[str, str, dict[str, str]]:
    """``"rate(m{a=b})"`` -> ``("rate", "m", {"a": "b"})`` (or raise)."""
    m = _EXPR_RE.match(expr)
    if m is None:
        raise ValueError(
            f"malformed rule expression {expr!r}: expected "
            "func(metric) or func(metric{label=value,...})"
        )
    func = m.group("func")
    if func not in _FUNCS:
        raise ValueError(
            f"unknown function {func!r} in {expr!r}: "
            f"expected one of {', '.join(_FUNCS)}"
        )
    labels: dict[str, str] = {}
    raw = m.group("labels")
    if raw:
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"malformed label matcher {part!r} in {expr!r}"
                )
            k, v = part.split("=", 1)
            k = k.strip()
            if not k:
                raise ValueError(
                    f"empty label name in matcher {part!r} of {expr!r}"
                )
            labels[k] = v.strip().strip('"')
    return func, m.group("metric"), labels


@dataclass(frozen=True)
class Rule:
    """One declarative alert rule over a sampled signal."""

    name: str
    expr: str
    threshold: float
    window: float = 0.0
    for_s: float = 0.0
    severity: str = "warning"
    op: str = ">"

    def __post_init__(self) -> None:
        parse_expr(self.expr)  # fail fast on malformed expressions
        if self.op not in _OPS:
            raise ValueError(
                f"rule {self.name!r}: unknown comparison {self.op!r} "
                f"(expected one of {', '.join(_OPS)})"
            )
        for what, value in (("window", self.window), ("for_s", self.for_s)):
            if not value >= 0.0:  # also rejects NaN
                raise ValueError(
                    f"rule {self.name!r}: {what} must be >= 0, got {value}"
                )
        if self.threshold != self.threshold:
            raise ValueError(f"rule {self.name!r}: threshold is NaN")


@dataclass(frozen=True)
class AlertEvent:
    """One firing of one rule against one matching series."""

    rule: str
    severity: str
    labels: tuple[tuple[str, str], ...]
    start: float  #: first sample instant where the condition held
    end: float  #: resolution instant (last sample when never resolved)
    resolved: bool  #: condition observed false again before run end
    peak: float  #: most extreme signal value while the condition held
    threshold: float
    expr: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "labels": dict(self.labels),
            "start": self.start,
            "end": self.end,
            "resolved": self.resolved,
            "peak": self.peak,
            "threshold": self.threshold,
            "expr": self.expr,
        }


def builtin_rules() -> tuple[Rule, ...]:
    """The standing rule set every sampled run is checked against.

    Thresholds are deliberately conservative: a healthy run of the
    bundled workloads fires none of them, while the fault plans the
    test-suite and CI exercise (``net_slow`` windows, retry storms)
    fire the matching rule deterministically.
    """
    return (
        Rule(
            name="queue-depth-saturation",
            expr=f"min({POLICY_QUEUE_DEPTH_CURRENT})",
            threshold=16.0,
            window=5e-3,
            for_s=5e-3,
            severity="warning",
        ),
        Rule(
            name="device-imbalance",
            expr=f"mean({DEVICE_IMBALANCE})",
            threshold=2.5,
            window=5e-3,
            for_s=10e-3,
            severity="warning",
        ),
        Rule(
            name="link-over-utilization",
            # Observed NIC busy vs the α/β model: sustained >= 2x means
            # the wire delivers under half the modelled rate (net_slow
            # degradation, contention, retransmit storms).  ``max`` over
            # the window, not ``mean``: the ratio reads 0 between comm
            # bursts, and averaging those idle instants in would mask a
            # wire that is 3x slow whenever it is actually carrying.
            expr=f"max({LINK_MODEL_RATIO})",
            threshold=2.0,
            window=5e-3,
            for_s=2e-3,
            severity="critical",
        ),
        Rule(
            name="membership-churn",
            # Elastic jobs increment prs_membership_events_total once per
            # applied join/drain/kill transition; two or more inside one
            # short window means the cluster is thrashing (e.g. an
            # autoscaler oscillating, or a chaos plan stacking drains).
            # Jobs without membership tracking never create the series,
            # so the rule cannot fire on them.
            expr=f"increase({MEMBERSHIP_EVENTS})",
            threshold=2.0,
            window=20e-3,
            for_s=0.0,
            severity="warning",
            op=">=",
        ),
        Rule(
            name="retry-storm",
            expr="increase(prs_recovery_blocks_retried_total)",
            threshold=4.0,
            window=10e-3,
            for_s=0.0,
            severity="critical",
            op=">=",
        ),
    )


# ----------------------------------------------------------------------
def _window_aggregate(
    func: str, times: list[float], values: list[float], lo: int, hi: int
) -> float | None:
    """*func* over the samples ``[lo, hi)`` — the same result as the
    matching :class:`Series` aggregator over that window."""
    if func in ("rate", "increase"):
        if hi - lo < 2:
            return None
        delta = values[hi - 1] - values[lo]
        if func == "increase":
            return delta
        dt = times[hi - 1] - times[lo]
        return None if dt <= 0.0 else delta / dt
    if hi <= lo:
        return None
    window = values[lo:hi]
    if func == "mean":
        return reduce(add, window, 0) / len(window)
    if func == "max":
        return max(window)
    if func == "min":
        return min(window)
    return sorted_quantile(sorted(window), 0.5 if func == "p50" else 0.99)


def _signals(
    func: str, window: float, series: Series, end: float
) -> list[tuple[float, float | None]]:
    """The signal at every point of *series* with ``t <= end``, in
    order, as ``(t, signal)`` pairs (signal None: the window has no
    value).  Each point's window is cut by bisection; every aggregate
    adds and compares the same floats in the same order as the Series
    aggregators, so the values are bit-identical."""
    points = series.points()  # grid times are the sampler's k * interval
    times = [t for t, _ in points]
    values = [v for _, v in points]
    n = bisect_right(times, end)
    if func == "value":
        return [(t, values[bisect_right(times, t) - 1]) for t in times[:n]]
    return [
        (t, _window_aggregate(func, times, values,
                              bisect_left(times, t - window),
                              bisect_right(times, t)))
        for t in times[:n]
    ]


def _cannot_fire(rule: Rule, func: str, series: Series) -> bool:
    """Whether no window of *series* can meet *rule*'s condition, read
    off the series' extreme values: value, min and max signals are
    sample values, an increase lies between the extremes' differences
    (float subtraction is monotone), and a mean of *c* samples strays
    from their range by at most ``(1 + 2**-53) ** c`` of its sign
    (``slack`` covers four times that).  Rates and quantiles are never
    skipped."""
    values = [v for _, _, v in series.runs()]
    values += [v for _, v in series.tail]
    if not values:
        return True
    lo, hi = min(values), max(values)
    upper = rule.op in (">", ">=")
    if func in ("value", "min", "max"):
        bound = hi if upper else lo
    elif func == "increase":
        bound = hi - lo if upper else lo - hi
    elif func == "mean":
        slack = 1.0 + len(series) * 2.0**-50
        bound = max(hi, 0.0) * slack if upper else min(lo, 0.0) * slack
    else:
        return False
    return bound == bound and not _OPS[rule.op](bound, rule.threshold)


def _evaluate_series(
    rule: Rule, func: str, series: Series, end: float
) -> list[AlertEvent]:
    if _cannot_fire(rule, func, series):
        return []
    compare = _OPS[rule.op]
    # "peak" follows the comparison direction: the largest value for
    # upper-bound rules, the smallest for lower-bound ones.
    extreme = max if rule.op in (">", ">=") else min
    events: list[AlertEvent] = []
    run_start: float | None = None
    run_peak = 0.0
    last_true: float | None = None

    def close(resolved_at: float | None) -> None:
        nonlocal run_start, run_peak
        if run_start is None or last_true is None:
            run_start = None
            return
        held = last_true - run_start
        if held >= rule.for_s:
            events.append(
                AlertEvent(
                    rule=rule.name,
                    severity=rule.severity,
                    labels=tuple(sorted(series.labels.items())),
                    start=run_start,
                    end=resolved_at if resolved_at is not None else min(last_true, end),
                    resolved=resolved_at is not None,
                    peak=run_peak,
                    threshold=rule.threshold,
                    expr=rule.expr,
                )
            )
        run_start = None
        run_peak = 0.0

    for t, v in _signals(func, rule.window, series, end):
        if v is not None and compare(v, rule.threshold):
            if run_start is None:
                run_start = t
                run_peak = v
            else:
                run_peak = extreme(run_peak, v)
            last_true = t
        elif run_start is not None:
            close(resolved_at=t)
    close(resolved_at=None)
    return events


def evaluate_rules(
    bank: SeriesBank,
    rules: tuple[Rule, ...] | list[Rule] | None = None,
    end: float | None = None,
) -> list[AlertEvent]:
    """Evaluate *rules* (default: :func:`builtin_rules`) against every
    matching series of *bank*; returns events sorted by (start, rule,
    labels) — a deterministic order for identical runs."""
    if rules is None:
        rules = builtin_rules()
    if end is None:
        end = max(
            (s.last_t for s in bank if s.last_t is not None), default=0.0
        )
    events: list[AlertEvent] = []
    for rule in rules:
        func, metric, labels = parse_expr(rule.expr)
        for series in bank.matching(metric, labels):
            events.extend(_evaluate_series(rule, func, series, end))
    events.sort(key=lambda e: (e.start, e.rule, e.labels))
    return events


def record_alerts(
    tracer: "SpanTracer",
    metrics: MetricsRegistry,
    alerts: list[AlertEvent],
) -> None:
    """Write *alerts* into the observability plane: one retrospective
    ``alert`` span each (on the dedicated ``alerts`` track, parentless,
    closed — so profile consistency checks hold) plus the
    ``prs_alerts_total`` counter."""
    counter = metrics.counter(
        ALERTS_TOTAL, help="Alert-rule firings by rule and severity."
    )
    for event in alerts:
        tracer.record(
            event.rule,
            ALERTS_TRACK,
            event.start,
            max(event.end, event.start),
            category=ALERT_CATEGORY,
            parent_id=None,
            attrs={
                "severity": event.severity,
                "labels": dict(event.labels),
                "resolved": event.resolved,
                "peak": event.peak,
                "threshold": event.threshold,
                "expr": event.expr,
            },
        )
        counter.inc(1, rule=event.rule, severity=event.severity)


def alerts_from_tracer(tracer: "SpanTracer") -> list[dict[str, Any]]:
    """Plain-dict view of the alert spans of a tracer (saved profiles
    round-trip alerts as spans; this recovers them for reports)."""
    out = []
    for span in tracer.find(category=ALERT_CATEGORY):
        attrs = span.attrs
        out.append(
            {
                "rule": span.name,
                "severity": attrs.get("severity", "warning"),
                "labels": dict(attrs.get("labels", {})),
                "start": span.start,
                "end": span.end,
                "resolved": bool(attrs.get("resolved", False)),
                "peak": attrs.get("peak"),
                "threshold": attrs.get("threshold"),
                "expr": attrs.get("expr", ""),
            }
        )
    out.sort(key=lambda a: (a["start"], a["rule"], sorted(a["labels"].items())))
    return out
