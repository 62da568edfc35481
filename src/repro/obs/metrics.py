"""Labeled metrics: counters, gauges, and bucketed histograms.

The registry is the runtime's quantitative memory: every component that
does work (device daemons, scheduling policies, the region allocator, the
communicator) increments named, labeled series here, and anything that
wants *observed* rates — the adaptive-feedback policy, the post-run
report, the ``repro metrics`` CLI — reads them back without re-scanning
the execution trace.

Design points, all zero-dependency:

* Metric types follow the Prometheus data model (counter / gauge /
  histogram with cumulative buckets) and :meth:`MetricsRegistry.render`
  emits the text exposition format, so the output drops into ``promtool``
  or a Pushgateway unchanged.
* Label sets are plain keyword arguments; a (sorted) label tuple keys
  each sample, so one metric object holds every series of that name.
* :class:`IntervalUnion` maintains an exact union of busy intervals
  incrementally — the device-level "busy seconds" counter stays
  overlap-merged (a device can never exceed 100 % utilization) while
  still being a cheap monotonic counter that observers diff instead of
  re-merging the whole trace.
"""

from __future__ import annotations

import bisect
import math
from functools import reduce
from operator import add
from typing import Any, Callable, Iterator

# ---------------------------------------------------------------------------
# Well-known series names (the contract between instrumentation and readers;
# see docs/OBSERVABILITY.md for the full catalogue).
# ---------------------------------------------------------------------------

DEVICE_BUSY_SECONDS = "prs_device_busy_seconds_total"
DEVICE_BUSY_UNION_SECONDS = "prs_device_busy_union_seconds_total"
DEVICE_FLOPS = "prs_device_flops_total"
DEVICE_BYTES = "prs_device_bytes_total"
DEVICE_TASKS = "prs_device_tasks_total"
PHASE_SECONDS = "prs_phase_seconds_total"
ITERATIONS = "prs_iterations_total"
POLICY_BLOCKS = "prs_policy_blocks_dispatched_total"
POLICY_STEALS = "prs_policy_steals_total"
POLICY_REFITS = "prs_policy_refits_total"
POLICY_CPU_FRACTION = "prs_policy_cpu_fraction"
POLICY_QUEUE_DEPTH = "prs_policy_queue_depth"
POLICY_QUEUE_DEPTH_CURRENT = "prs_policy_queue_depth_current"
SPLIT_CPU_FRACTION = "prs_split_cpu_fraction"
REGION_OBJECT_ALLOCS = "prs_region_object_allocs_total"
REGION_BACKING_ALLOCS = "prs_region_backing_allocs_total"
REGION_BYTES_SERVED = "prs_region_bytes_served_total"
REGION_BYTES_COPIED = "prs_region_bytes_copied_total"
REGION_RESETS = "prs_region_resets_total"
REGION_CAPACITY_BYTES = "prs_region_capacity_bytes"
#: labeled ``{src, dst, tag, link}`` per delivered message — the metric
#: twin of the span-level comm matrix (``tag`` is the coarse tag *class*,
#: e.g. ``shuffle``/``state``/``heartbeat``, to bound label cardinality)
COMM_MESSAGES = "prs_comm_messages_total"
COMM_BYTES = "prs_comm_bytes_total"
COMM_TIMEOUTS = "prs_comm_timeouts_total"
COMM_RETRANSMITS = "prs_comm_retransmits_total"
COMM_HEARTBEATS = "prs_comm_heartbeats_total"
SHUFFLE_PAIRS = "prs_shuffle_pairs_total"
SHUFFLE_BYTES = "prs_shuffle_bytes_total"
RECOVERY_FAULTS_INJECTED = "prs_recovery_faults_injected_total"
RECOVERY_BLOCK_FAILURES = "prs_recovery_block_failures_total"
RECOVERY_BLOCKS_RETRIED = "prs_recovery_blocks_retried_total"
RECOVERY_DEVICES_BLACKLISTED = "prs_recovery_devices_blacklisted_total"
RECOVERY_SPLIT_REFITS = "prs_recovery_split_refits_total"
RECOVERY_CHECKPOINTS = "prs_recovery_checkpoints_total"
RECOVERY_RANK_RESTARTS = "prs_recovery_rank_restarts_total"
MEMBERSHIP_EPOCH = "prs_membership_epoch"
MEMBERSHIP_LIVE_RANKS = "prs_membership_live_ranks"
MEMBERSHIP_EVENTS = "prs_membership_events_total"
AUTOSCALE_DECISIONS = "prs_autoscale_decisions_total"
JOB_MAKESPAN_SECONDS = "prs_job_makespan_seconds"
JOB_ITERATIONS = "prs_job_iterations"
ALERTS_TOTAL = "prs_alerts_total"

#: default histogram buckets for simulated durations (seconds)
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)

#: buckets for small integral quantities (queue depths, block counts)
COUNT_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = [*key, *extra]
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


class Metric:
    """Shared plumbing: a name, help text, and per-label-set samples."""

    type_name = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._samples: dict[LabelKey, Any] = {}
        #: the registry's write set while a sampler watches it (see
        #: :meth:`MetricsRegistry.track_writes`), else None
        self._dirty: set[Any] | None = None


class Counter(Metric):
    """A monotonically increasing sum per label set."""

    type_name = "counter"

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        if not value >= 0:  # also rejects NaN, for which `value < 0` is False
            raise ValueError(f"counter {self.name}: negative or NaN increment {value}")
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + value
        if self._dirty is not None:
            self._dirty.add((self.name, key))

    def value(self, **labels: Any) -> float:
        return self._samples.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set (e.g. all devices of one metric)."""
        return sum(self._samples.values())

    def samples(self) -> list[tuple[dict[str, str], float]]:
        return [(dict(k), v) for k, v in self._samples.items()]

    def render(self) -> list[str]:
        # Sorted label sets: the text exposition is byte-stable no
        # matter in which order series were first touched.
        return [
            f"{self.name}{_format_labels(key)} {_format_value(value)}"
            for key, value in sorted(self._samples.items())
        ]


class CounterChild:
    """One counter series bound to a fixed label set.

    The Prometheus ``labels()`` handle: the label key is built once, so
    a hot site pays a dict update per :meth:`inc` instead of sorting
    and stringifying its labels every time.  The counter itself is
    created (or looked up) in the registry on the first :meth:`inc`, so
    a child that is never incremented registers nothing, and the
    registry's contents, :meth:`MetricsRegistry.render` and
    :meth:`MetricsRegistry.to_dict` match the ``inc(**labels)`` path
    exactly.
    """

    __slots__ = ("_registry", "name", "key", "_samples")

    def __init__(self, registry: "MetricsRegistry", name: str, key: LabelKey) -> None:
        self._registry = registry
        self.name = name
        self.key = key
        self._samples: dict[LabelKey, float] | None = None

    def inc(self, value: float = 1.0) -> None:
        if not value >= 0:  # also rejects NaN, for which `value < 0` is False
            raise ValueError(f"counter {self.name}: negative or NaN increment {value}")
        samples = self._samples
        if samples is None:
            samples = self._samples = self._registry.counter(self.name)._samples
        key = self.key
        samples[key] = samples.get(key, 0.0) + value
        dirty = self._registry._dirty
        if dirty is not None:
            dirty.add(self)  # hashed by identity: cheaper than (name, key)


class GaugeChild:
    """One gauge series bound to a fixed label set: :class:`CounterChild`'s
    twin for :meth:`Gauge.set`.  The gauge is registered on the first
    :meth:`set`, and each set adds the same ``(name, label key)`` pair
    to the write set that ``Gauge.set`` would."""

    __slots__ = ("_registry", "name", "key", "_entry", "_samples")

    def __init__(self, registry: "MetricsRegistry", name: str, key: LabelKey) -> None:
        self._registry = registry
        self.name = name
        self.key = key
        self._entry = (name, key)
        self._samples: dict[LabelKey, float] | None = None

    def set(self, value: float) -> None:
        samples = self._samples
        if samples is None:
            samples = self._samples = self._registry.gauge(self.name)._samples
        samples[self.key] = float(value)
        dirty = self._registry._dirty
        if dirty is not None:
            dirty.add(self._entry)


class Gauge(Metric):
    """A value that can go up and down per label set."""

    type_name = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        self._samples[key] = float(value)
        if self._dirty is not None:
            self._dirty.add((self.name, key))

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + value
        if self._dirty is not None:
            self._dirty.add((self.name, key))

    def samples(self) -> list[tuple[dict[str, str], float]]:
        return [(dict(k), v) for k, v in self._samples.items()]

    def render(self) -> list[str]:
        return [
            f"{self.name}{_format_labels(key)} {_format_value(value)}"
            for key, value in sorted(self._samples.items())
        ]


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0

    def add(self, bounds: tuple[float, ...], value: float) -> None:
        self.bucket_counts[bisect.bisect_left(bounds, value)] += 1
        self.sum += value
        self.count += 1


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus ``_bucket``/``_sum``/``_count``).

    ``bounds`` are the finite upper bucket boundaries (sorted,
    deduplicated); a ``+Inf`` bucket is always appended, so every
    observation lands somewhere.  An observation equal to a boundary
    counts into that boundary's bucket (``le`` semantics).
    """

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        finite = sorted({float(b) for b in buckets if math.isfinite(b)})
        if not finite:
            raise ValueError(f"histogram {name}: needs >= 1 finite bucket bound")
        self.bounds: tuple[float, ...] = (*finite, math.inf)

    def observe(self, value: float, **labels: Any) -> None:
        self._series(_label_key(labels)).add(self.bounds, value)

    def _series(self, key: LabelKey) -> _HistogramSeries:
        series = self._samples.get(key)
        if series is None:
            series = self._samples[key] = _HistogramSeries(len(self.bounds))
        return series

    def render(self) -> list[str]:
        lines: list[str] = []
        for key, series in sorted(self._samples.items(), key=lambda kv: kv[0]):
            cumulative = 0
            for bound, n in zip(self.bounds, series.bucket_counts):
                cumulative += n
                le = _format_labels(key, (("le", _format_value(bound)),))
                lines.append(f"{self.name}_bucket{le} {cumulative}")
            lines.append(
                f"{self.name}_sum{_format_labels(key)} "
                f"{_format_value(series.sum)}"
            )
            lines.append(f"{self.name}_count{_format_labels(key)} {series.count}")
        return lines


class HistogramChild:
    """One histogram series bound to a fixed label set (see
    :class:`CounterChild`): the histogram and its series are created on
    the first :meth:`observe`, as ``Histogram.observe`` would."""

    __slots__ = ("_registry", "name", "key", "_buckets", "_bounds", "_series")

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        key: LabelKey,
        buckets: tuple[float, ...],
    ) -> None:
        self._registry = registry
        self.name = name
        self.key = key
        self._buckets = buckets
        self._bounds: tuple[float, ...] = ()
        self._series: _HistogramSeries | None = None

    def observe(self, value: float) -> None:
        series = self._series
        if series is None:
            metric = self._registry.histogram(self.name, buckets=self._buckets)
            self._bounds = metric.bounds
            series = self._series = metric._series(self.key)
        series.add(self._bounds, value)


def _up_to_date() -> None:
    """The default :attr:`MetricsRegistry.before_read`: nothing is
    derived, so every series is always current."""


class MetricsRegistry:
    """Create-or-get access to named metrics plus text exposition."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        #: the counter/gauge series written since the watcher last
        #: cleared it (see track_writes); None when nothing watches
        self._dirty: set[Any] | None = None
        #: called first by every read — create-or-get, :meth:`get`,
        #: :meth:`names` (and so iteration, :meth:`render`,
        #: :meth:`to_dict`) and :meth:`track_writes` — to bring series
        #: that are folded in on read up to date (a trace installs its
        #: record fold here)
        self.before_read: Callable[[], None] = _up_to_date

    # ------------------------------------------------------------------
    def track_writes(self) -> set[Any]:
        """Start recording which counter/gauge series are written.

        Returns the write set, seeded with every series that already
        exists; the watcher (the time-series sampler) reads and clears
        it at each snapshot.  A ``Counter.inc``/``Gauge.set``/
        ``Gauge.inc`` adds its ``(name, label key)`` pair, a
        :class:`CounterChild` adds itself (its ``name`` and ``key``
        name the series).  Until this is called, and again after
        :meth:`untrack_writes`, a write pays one ``is None`` test.
        """
        self.before_read()
        dirty = {
            (metric.name, key)
            for metric in self._metrics.values()
            if isinstance(metric, (Counter, Gauge))
            for key in metric._samples
        }
        self._set_dirty(dirty)
        return dirty

    def untrack_writes(self) -> None:
        """Stop recording writes and drop the write set."""
        self._set_dirty(None)

    def _set_dirty(self, dirty: set[Any] | None) -> None:
        self._dirty = dirty
        for metric in self._metrics.values():
            metric._dirty = dirty

    def _get_or_create(self, cls: type, name: str, **kwargs: Any) -> Any:
        self.before_read()
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            metric._dirty = self._dirty
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{metric.type_name}, not {cls.type_name}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help)

    def counter_child(self, name: str, **labels: Any) -> CounterChild:
        """A handle on the *labels* series of counter *name* (see
        :class:`CounterChild`); registers nothing until its first
        ``inc``."""
        return CounterChild(self, name, _label_key(labels))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help)

    def gauge_child(self, name: str, **labels: Any) -> GaugeChild:
        """A handle on the *labels* series of gauge *name* (see
        :class:`GaugeChild`); registers nothing until its first ``set``."""
        return GaugeChild(self, name, _label_key(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help=help, buckets=buckets)

    def histogram_child(
        self, name: str, buckets: tuple[float, ...], **labels: Any
    ) -> HistogramChild:
        """A handle on the *labels* series of histogram *name* (see
        :class:`HistogramChild`); registers nothing until its first
        ``observe``."""
        return HistogramChild(self, name, _label_key(labels), buckets)

    # ------------------------------------------------------------------
    def get(self, name: str) -> Metric | None:
        self.before_read()
        return self._metrics.get(name)

    def names(self) -> list[str]:
        self.before_read()
        return sorted(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        for name in self.names():
            yield self._metrics[name]

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every series."""
        lines: list[str] = []
        for metric in self:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.type_name}")
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict[str, list[dict[str, Any]]]:
        """JSON-serializable snapshot: name -> [{labels, value(s)}]."""
        out: dict[str, list[dict[str, Any]]] = {}
        for metric in self:
            entries: list[dict[str, Any]] = []
            if isinstance(metric, Histogram):
                for key, series in metric._samples.items():
                    entries.append(
                        {
                            "labels": dict(key),
                            "count": series.count,
                            "sum": series.sum,
                            "buckets": {
                                _format_value(b): n
                                for b, n in zip(
                                    metric.bounds, series.bucket_counts
                                )
                            },
                        }
                    )
            else:
                for labels, value in metric.samples():  # type: ignore[attr-defined]
                    entries.append({"labels": labels, "value": value})
            out[metric.name] = entries
        return out

    def to_typed_dict(self) -> dict[str, dict[str, Any]]:
        """Self-describing snapshot: name -> {help, type, samples}.

        The JSON counterpart of :meth:`render`'s ``# HELP`` / ``# TYPE``
        comment lines — a consumer needs no out-of-band registry to
        interpret the samples (Prometheus text-format parity).
        """
        samples = self.to_dict()
        return {
            metric.name: {
                "help": metric.help,
                "type": metric.type_name,
                "samples": samples[metric.name],
            }
            for metric in self
        }


class IntervalUnion:
    """Exact incremental union of real intervals.

    ``add(start, end)`` merges the interval into the set and returns the
    *newly covered* length — exactly the increment a monotonic
    "overlap-merged busy seconds" counter needs.  Internally the disjoint
    intervals stay sorted, so each add is O(log n + merged).
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self.total = 0.0

    def add(self, start: float, end: float) -> float:
        if not end >= start:
            raise ValueError(f"interval end {end} precedes start {start}")
        if end == start:
            return 0.0
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._starts, end)
        if lo == hi:  # touches nothing: plain insert
            self._starts.insert(lo, start)
            self._ends.insert(lo, end)
            added = end - start
        else:  # merge intervals [lo, hi) into one
            new_start = min(start, self._starts[lo])
            new_end = max(end, self._ends[hi - 1])
            existing = reduce(add, [
                self._ends[i] - self._starts[i] for i in range(lo, hi)
            ], 0)
            added = (new_end - new_start) - existing
            self._starts[lo:hi] = [new_start]
            self._ends[lo:hi] = [new_end]
        self.total += added
        return added

    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self._starts, self._ends))
