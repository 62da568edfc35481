"""Simulated-clock time-series sampling over the metrics registry.

The metrics registry (PR 2) answers "how much, in total?"; this module
answers "how much, *when*?".  A :class:`MetricSampler` attached to a
:class:`~repro.simulate.trace.Trace` snapshots every registered counter
and gauge onto a fixed grid of simulated instants ``t_k = k *
sample_interval`` and records the values in ring-bounded
:class:`Series`, which store only the instants where a value changes.
Windowed aggregates (the alert rules' rate, mean, max, p50/p99; the
autoscaler's mean and max) are computed lazily from the stored runs, so
sampling itself is a few dict walks and comparisons per grid crossing
and *nothing* at other times.

Zero-perturbation contract
--------------------------
The sampler never talks to the simulation engine: it schedules no
events, holds no processes, and advances no clocks.  Instead it is
*tick-driven*: every trace mutation (``Trace.add``, ``record_recv``,
``begin_phase`` ...) first calls :meth:`MetricSampler.advance` with the
current simulated time, and the sampler back-fills any grid instants
that have elapsed since the previous tick with the *pre-mutation*
registry state.  A run with sampling enabled is therefore bitwise
identical — same schedule, same spans, same app output — to one
without; the only difference is the extra series riding in the trace.
``benchmarks/bench_obs_overhead.py`` asserts this (0 extra engine
events at the default interval).

Besides raw counter/gauge samples the sampler derives, at each grid
instant, the signals the rule engine (:mod:`repro.obs.rules`) watches:

* ``prs_device_busy_fraction{device=...}`` — busy-union seconds gained
  per elapsed second since the previous sample (from the incremental
  ``prs_device_busy_union_seconds_total`` counter);
* ``prs_device_imbalance`` — max/mean busy fraction across non-NIC
  devices (1.0 = perfectly balanced, 0 when everything was idle);
* ``prs_link_utilization{link=...}`` — α/β-modelled wire seconds
  offered per elapsed second on each registered link class
  (``Δmessages·α + Δbytes/β``, the model of Section 3.3);
* ``prs_link_model_ratio{link=...}`` — observed NIC busy seconds over
  α/β-modelled seconds in the same window; a sustained ratio well
  above 1 means the network is delivering below model (degradation,
  contention, retransmit storms) — exactly what ``net_slow`` faults
  produce.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from math import copysign, isfinite
from typing import TYPE_CHECKING, Any, Iterator

from repro._validation import require_nonnegative, require_positive
from repro.obs.metrics import (
    COMM_BYTES,
    COMM_MESSAGES,
    Counter,
    DEVICE_BUSY_SECONDS,
    DEVICE_BUSY_UNION_SECONDS,
    Gauge,
    LabelKey,
    MetricsRegistry,
    _label_key,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulate.trace import Trace

#: default sampling grid pitch in simulated seconds.  The bundled
#: workloads have makespans in the 0.02-1 s range, so 1 ms yields tens
#: to hundreds of samples — enough for the built-in rules' windows
#: while keeping snapshot work negligible.
DEFAULT_SAMPLE_INTERVAL = 1e-3

#: default ring capacity per series.  At the default interval this
#: covers ~8 simulated seconds of history per series before the ring
#: starts dropping its oldest samples, far beyond any bundled workload.
DEFAULT_SERIES_CAPACITY = 8192

#: derived series names (registered nowhere — they exist only as
#: sampled series, never as registry metrics)
DEVICE_BUSY_FRACTION = "prs_device_busy_fraction"
DEVICE_IMBALANCE = "prs_device_imbalance"
LINK_UTILIZATION = "prs_link_utilization"
LINK_MODEL_RATIO = "prs_link_model_ratio"

#: snapshot-plan roles: the derived probe a sampled value feeds
_BUSY_UNION, _NET_BUSY, _LINK_MSGS, _LINK_BYTES = range(4)


def sorted_quantile(values: list[float], q: float) -> float | None:
    """Interpolated *q*-quantile of already-sorted *values* (None when
    empty)."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    frac = pos - lo
    return values[lo] + (values[hi] - values[lo]) * frac


class Series:
    """A step function of ``(t, value)`` samples with lazy aggregators.

    Grid samples — the sampler's ``t_k = k * interval`` — are stored as
    change points: the grid index where each run of bitwise-equal values
    starts, the run's value, and the grid end (one past the last sampled
    index).  A repeat only moves the end, and its time is regenerated
    with the sampler's own expression ``k * interval``, so every time is
    bit-identical to a per-instant store.  Off-grid points follow the
    grid as explicit ``(t, v)`` pairs: the sampler's final end-state
    anchor, and every point a plain :meth:`append` adds (hand-built
    series, profiles of schema v1-v3), each its own run.

    Aggregation windows are inclusive on both ends: ``[t0, t1]``.
    The ring holds *capacity* samples, grid and off-grid alike; when it
    is full the oldest sample is dropped (``dropped`` counts how many);
    all aggregators operate on what remains.
    """

    __slots__ = ("name", "labels", "interval", "capacity", "dropped",
                 "_k", "_v", "_end", "_tail", "_last")

    def __init__(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        capacity: int = DEFAULT_SERIES_CAPACITY,
        interval: float | None = None,
    ) -> None:
        if capacity < 2:
            raise ValueError(f"series capacity must be >= 2, got {capacity}")
        self.name = name
        self.labels = dict(labels) if labels else {}
        #: sampling grid pitch (None: the series holds off-grid points only)
        self.interval = interval
        self.capacity = capacity
        self.dropped = 0
        self._k: list[int] = []  # grid index where each run starts
        self._v: list[float] = []  # each run's value
        self._end = 0  # one past the last grid index sampled
        self._tail: list[tuple[float, float]] = []  # off-grid points
        #: value of the open run; None before any sample and once an
        #: off-grid point follows the grid (no run to extend)
        self._last: float | None = None

    # ------------------------------------------------------------------
    def sample(self, k: int, value: float) -> None:
        """Record the grid sample at ``k * interval``.  A value bitwise
        equal to the previous one (``0.0`` and ``-0.0`` differ) extends
        its run; anything else starts a new one."""
        last = self._last
        if (
            k == self._end
            and value == last
            and (value or copysign(1.0, value) == copysign(1.0, last))
        ):
            self._end = k + 1
            if k - self._k[0] >= self.capacity:
                self._drop_oldest()
            return
        if value != value:
            raise ValueError(f"series {self.name!r}: NaN sample at grid index {k}")
        if self._tail:
            raise ValueError(
                f"series {self.name!r}: grid sample {k} after an off-grid point"
            )
        if self.interval is None:
            raise ValueError(f"series {self.name!r}: no sampling grid")
        if self._k and k != self._end:
            raise ValueError(
                f"series {self.name!r}: grid sample {k} does not follow "
                f"{self._end - 1}"
            )
        value = float(value)
        self._k.append(k)
        self._v.append(value)
        self._end = k + 1
        self._last = value
        if k - self._k[0] >= self.capacity:
            self._drop_oldest()

    def append(self, t: float, value: float) -> None:
        """Add one off-grid point (its own run) after every sample."""
        if not isfinite(t):
            raise ValueError(f"series {self.name!r}: non-finite sample time {t}")
        if value != value:
            raise ValueError(f"series {self.name!r}: NaN value at t={t}")
        last = self.last_t
        if last is not None and t < last:
            raise ValueError(
                f"series {self.name!r}: sample time {t} precedes previous "
                f"sample {last}"
            )
        self._tail.append((t, float(value)))
        self._last = None
        if len(self) > self.capacity:
            self._drop_oldest()

    def _drop_oldest(self) -> None:
        """Trim the ring by one sample: the head of the oldest run."""
        self.dropped += 1
        ks = self._k
        if not ks:
            del self._tail[0]
            return
        head = ks[0] + 1
        if head == self._end:
            ks.clear()
            self._v.clear()
        elif len(ks) > 1 and ks[1] == head:
            del ks[0]
            del self._v[0]
        else:
            ks[0] = head

    def __len__(self) -> int:
        grid = self._end - self._k[0] if self._k else 0
        return grid + len(self._tail)

    def runs(self) -> list[tuple[int, int, float]]:
        """The grid samples as ``(first, stop, value)`` runs: grid
        indices ``first <= k < stop`` all hold *value*."""
        ks = self._k
        stops = ks[1:] + [self._end]
        return list(zip(ks, stops, self._v))

    @property
    def tail(self) -> list[tuple[float, float]]:
        """The off-grid points that follow the grid samples."""
        return list(self._tail)

    def points(self) -> list[tuple[float, float]]:
        interval = self.interval
        out = []
        for first, stop, v in self.runs():
            out.extend([(k * interval, v) for k in range(first, stop)])
        out.extend(self._tail)
        return out

    @property
    def first_t(self) -> float | None:
        if self._k:
            return self._k[0] * self.interval
        return self._tail[0][0] if self._tail else None

    @property
    def last_t(self) -> float | None:
        if self._tail:
            return self._tail[-1][0]
        return (self._end - 1) * self.interval if self._k else None

    def _grid_window(self, t0: float, t1: float) -> tuple[int, int]:
        """Grid indices ``[lo, hi)`` of the samples with ``t0 <= t <=
        t1``, found with the exact time expression (times are monotone
        in k)."""
        if not self._k:
            return 0, 0
        grid = range(self._k[0], self._end)
        interval = self.interval
        lo = bisect_left(grid, t0, key=lambda k: k * interval)
        hi = bisect_right(grid, t1, key=lambda k: k * interval)
        return grid.start + lo, grid.start + hi

    def window(self, t0: float, t1: float) -> list[tuple[float, float]]:
        """Samples with ``t0 <= t <= t1`` (inclusive both ends)."""
        lo, hi = self._grid_window(t0, t1)
        interval = self.interval
        out = []
        for first, stop, v in self.runs():
            out.extend([
                (k * interval, v) for k in range(max(first, lo), min(stop, hi))
            ])
        out.extend((t, v) for t, v in self._tail if t0 <= t <= t1)
        return out

    # ------------------------------------------------------------------
    # Lazy windowed aggregators
    # ------------------------------------------------------------------
    def mean(self, t0: float, t1: float) -> float | None:
        pts = self.window(t0, t1)
        if not pts:
            return None
        return sum(v for _, v in pts) / len(pts)

    def vmax(self, t0: float, t1: float) -> float | None:
        pts = self.window(t0, t1)
        return max((v for _, v in pts), default=None)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The schema-v4 profile line: grid, change points, off-grid
        tail and ``dropped`` (see :mod:`repro.obs.profile`)."""
        grid = None
        if self._k:
            grid = {"interval": self.interval, "end": self._end}
        return {
            "series": self.name,
            "labels": dict(self.labels),
            "grid": grid,
            "k": list(self._k),
            "v": list(self._v),
            "tail": [[t, v] for t, v in self._tail],
            "dropped": self.dropped,
        }

    def _load(self, payload: dict[str, Any]) -> None:
        """Fill an empty series from a :meth:`to_dict` payload, or from
        a schema v1-v3 line (``t``/``v`` per point)."""
        name = self.name
        if "grid" not in payload:
            times, values = payload.get("t", []), payload.get("v", [])
            if len(times) != len(values):
                raise ValueError(
                    f"series {name!r}: {len(times)} times but "
                    f"{len(values)} values"
                )
            for t, v in zip(times, values):
                self.append(float(t), float(v))
            return
        ks, values = payload.get("k", []), payload.get("v", [])
        if len(ks) != len(values):
            raise ValueError(
                f"series {name!r}: {len(ks)} change indices but "
                f"{len(values)} values"
            )
        grid = payload["grid"]
        if ks:
            if grid is None:
                raise ValueError(f"series {name!r}: change points without a grid")
            self.interval = require_positive(
                f"series {name!r} interval", float(grid["interval"])
            )
            end = int(grid["end"])
            ks = [int(k) for k in ks]
            if any(b <= a for a, b in zip(ks, ks[1:])) or ks[-1] >= end:
                raise ValueError(
                    f"series {name!r}: change indices must increase "
                    f"below the grid end {end}"
                )
            values = [float(v) for v in values]
            if any(v != v for v in values):
                raise ValueError(f"series {name!r}: NaN value")
            self._k, self._v, self._end = ks, values, end
            self._last = values[-1]
        for t, v in payload.get("tail", []):
            self.append(float(t), float(v))
        while len(self) > self.capacity:
            self._drop_oldest()


class SeriesBank:
    """All sampled series of one run, keyed by (name, label set)."""

    def __init__(
        self,
        capacity: int = DEFAULT_SERIES_CAPACITY,
        interval: float | None = None,
    ) -> None:
        self.capacity = capacity
        #: sampling grid pitch of the series this bank creates
        self.interval = interval
        self._series: dict[tuple[str, LabelKey], Series] = {}

    # ------------------------------------------------------------------
    def get_or_create(self, name: str, key: LabelKey) -> Series:
        series = self._series.get((name, key))
        if series is None:
            series = Series(name, dict(key), capacity=self.capacity,
                            interval=self.interval)
            self._series[(name, key)] = series
        return series

    def matching(self, name: str, labels: dict[str, str] | None = None) -> list[Series]:
        """All series of *name* whose labels contain *labels* as a
        subset, in sorted label order (deterministic)."""
        want = {k: str(v) for k, v in (labels or {}).items()}
        out = []
        for (sname, key), series in sorted(self._series.items()):
            if sname != name:
                continue
            have = dict(key)
            if all(have.get(k) == v for k, v in want.items()):
                out.append(series)
        return out

    def __iter__(self) -> Iterator[Series]:
        for key in sorted(self._series):
            yield self._series[key]

    def __len__(self) -> int:
        return len(self._series)

    @property
    def total_points(self) -> int:
        return sum(len(s) for s in self._series.values())

    # ------------------------------------------------------------------
    def to_jsonl_lines(self) -> list[str]:
        """One compact JSON object per series, in sorted (name, labels)
        order — byte-stable for identical runs."""
        return [
            json.dumps(series.to_dict(), sort_keys=True)
            for series in self
        ]

    @classmethod
    def from_dicts(cls, payloads: list[dict[str, Any]],
                   capacity: int = DEFAULT_SERIES_CAPACITY) -> "SeriesBank":
        """Rebuild a bank from :meth:`Series.to_dict` payloads (or the
        per-point lines of profile schema v1-v3)."""
        bank = cls(capacity=capacity)
        for payload in payloads:
            labels = {str(k): str(v) for k, v in payload.get("labels", {}).items()}
            series = bank.get_or_create(
                payload["series"], _label_key(labels)
            )
            series._load(payload)
            series.dropped = int(payload.get("dropped", 0))
        return bank


class MetricSampler:
    """Tick-driven grid sampler over a trace's metrics registry.

    Attach with :meth:`Trace.attach_sampler`; the trace then calls
    :meth:`advance` at the top of every mutation, and the sampler emits
    one snapshot per elapsed grid instant ``k * interval``.  A snapshot
    at grid time *g* therefore reflects every update applied strictly
    before the first mutation at simulated time ``>= g`` — a
    deterministic function of the (deterministic) event stream.
    """

    def __init__(
        self,
        interval: float = DEFAULT_SAMPLE_INTERVAL,
        capacity: int = DEFAULT_SERIES_CAPACITY,
    ) -> None:
        self.interval = require_positive("sample interval", interval)
        self.bank = SeriesBank(capacity=capacity, interval=self.interval)
        self._trace: "Trace | None" = None
        self._k = 0  # next grid index to sample (t_k = k * interval)
        self._last_t: float | None = None  # time of the latest snapshot
        #: α/β wire models per link class: link -> (alpha_s, bytes_per_s)
        self._link_models: dict[str, tuple[float, float]] = {}
        #: previous raw values backing the derived probes
        self._prev: dict[str, float] = {}
        #: cached snapshot plan (see _current_plan) and the registry
        #: size it was built for; None forces a rebuild
        self._plan: dict[str, tuple] = {}
        self._link_plan: list[tuple] = []
        self._plan_size: tuple[int, int] | None = None
        self.finalized = False

    # ------------------------------------------------------------------
    def bind(self, trace: "Trace") -> None:
        self._trace = trace

    def register_link_model(
        self, link: str, latency_s: float, bytes_per_s: float
    ) -> None:
        """Declare the α/β wire model of one link class (idempotent —
        rank-restart epochs re-register the same model)."""
        require_nonnegative(f"link {link!r} latency", latency_s)
        if not bytes_per_s > 0.0:
            raise ValueError(
                f"link {link!r}: need bandwidth > 0, got beta={bytes_per_s}"
            )
        self._link_models[link] = (float(latency_s), float(bytes_per_s))
        self._plan_size = None

    @property
    def total_samples(self) -> int:
        return self.bank.total_points

    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Back-fill every grid instant in ``(last, now]`` with the
        current registry state.  O(1) when no grid instant elapsed; only
        a call that reaches one opens an ``obs:sampler`` scope on the
        bound trace's profiler (docs/PROFILING.md)."""
        trace = self._trace
        if trace is None or self.finalized or self._k * self.interval > now:
            return
        prof = trace.selfprof
        prof.begin("obs:sampler")
        try:
            self._backfill(now)
        finally:
            prof.end()

    def _backfill(self, now: float) -> None:
        interval = self.interval
        while self._k * interval <= now:
            self._snapshot(self._k * interval, self._k)
            self._k += 1

    def finalize(self, end: float) -> None:
        """Emit the remaining grid instants up to *end* plus one final
        off-grid snapshot at *end* itself (end-state anchor), then stop
        accepting ticks."""
        if self._trace is None or self.finalized:
            return
        self._backfill(end)
        if self._last_t is None or self._last_t < end:
            self._snapshot(end, None)
        self.finalized = True
        # No snapshot follows: release the plan's references.
        self._plan = {}
        self._link_plan = []
        self._plan_size = None

    # ------------------------------------------------------------------
    def _current_plan(self) -> dict[str, tuple]:
        """The cached snapshot plan, rebuilt when the registry grew.

        Metrics and label sets are only ever added, never removed, so a
        plan built for the same (metric count, label-set count) covers
        exactly the series a fresh sorted walk of the registry would,
        and so does a per-metric group whose label-set count still
        matches its metric's.
        """
        trace = self._trace
        assert trace is not None
        metrics = trace.metrics._metrics
        size = (len(metrics), sum(len(m._samples) for m in metrics.values()))
        if size != self._plan_size:
            self._build_plan(trace.metrics)
            self._plan_size = size
        return self._plan

    def _build_plan(self, registry: MetricsRegistry) -> None:
        """One group per counter/gauge, in name order, each listing its
        label sets in sorted order, so the snapshot appends and the
        derived sums run in the same order as a sorted registry walk;
        plus one row per registered link model.  Groups whose metric
        gained no label set are reused as they are."""
        old = self._plan
        plan = {}
        for metric in registry:  # name-sorted
            if isinstance(metric, (Counter, Gauge)):
                group = old.get(metric.name)
                if group is None or len(group[1]) != len(metric._samples):
                    group = self._plan_group(metric)
                plan[metric.name] = group
        self._plan = plan
        bank = self.bank
        self._link_plan = []
        for link in sorted(self._link_models):
            key = _label_key({"link": link})
            self._link_plan.append((
                link,
                *self._link_models[link],
                bank.get_or_create(LINK_UTILIZATION, key),
                bank.get_or_create(LINK_MODEL_RATIO, key),
            ))

    def _plan_group(self, metric: Counter | Gauge) -> tuple:
        """``(samples, keys, series, role, args)`` of one metric: its
        sorted label keys with their bank series, and which derived
        probe (``role``) the values feed, with a per-key argument."""
        bank = self.bank
        name = metric.name
        keys = sorted(metric._samples)
        series = [bank.get_or_create(name, key) for key in keys]
        role: int | None = None
        args: list[Any] | None = None
        if name == DEVICE_BUSY_UNION_SECONDS:
            role, args = _BUSY_UNION, []
            for key in keys:
                device = dict(key).get("device", "")
                args.append((
                    f"busy::{device}",
                    bank.get_or_create(DEVICE_BUSY_FRACTION, key),
                    not device.startswith("net."),
                ))
        elif name == DEVICE_BUSY_SECONDS:
            role = _NET_BUSY
            args = [dict(key).get("kind") == "net" for key in keys]
        elif name in (COMM_MESSAGES, COMM_BYTES):
            role = _LINK_MSGS if name == COMM_MESSAGES else _LINK_BYTES
            args = [dict(key).get("link", "") for key in keys]
        return (metric._samples, keys, series, role, args)

    def _snapshot(self, t: float, k: int | None) -> None:
        """Sample every plan row and derived probe at time *t*: grid
        instant *k*, or the off-grid end anchor when *k* is None."""
        put, at = (Series.append, t) if k is None else (Series.sample, k)
        busy_union: list[tuple[float, tuple[str, Series, bool]]] = []
        net_busy = 0.0
        link_msgs: dict[str, float] = {}
        link_bytes: dict[str, float] = {}
        for samples, keys, series, role, args in self._current_plan().values():
            if role is None:
                for key, s in zip(keys, series):
                    put(s, at, samples[key])
                continue
            for key, s, arg in zip(keys, series, args):
                value = samples[key]
                put(s, at, value)
                if role == _BUSY_UNION:
                    busy_union.append((value, arg))
                elif role == _NET_BUSY:
                    if arg:
                        net_busy += value
                elif role == _LINK_MSGS:
                    link_msgs[arg] = link_msgs.get(arg, 0.0) + value
                else:
                    link_bytes[arg] = link_bytes.get(arg, 0.0) + value
        self._derived(t, put, at, busy_union, net_busy, link_msgs, link_bytes)
        self._last_t = t

    def _derived(
        self,
        t: float,
        put: Any,
        at: int | float,
        busy_union: list[tuple[float, tuple[str, Series, bool]]],
        net_busy: float,
        link_msgs: dict[str, float],
        link_bytes: dict[str, float],
    ) -> None:
        prev = self._prev
        raw: dict[str, float] = {}
        last_t = self._last_t
        dt = (t - last_t) if last_t is not None else 0.0

        # Per-device busy fraction from the incremental union counter
        # (the plan lists the devices in sorted label order).
        fractions: list[float] = []
        for value, (raw_key, series, counts) in busy_union:
            raw[raw_key] = value
            delta = value - prev.get(raw_key, 0.0)
            fraction = (delta / dt) if dt > 0.0 else 0.0
            put(series, at, fraction)
            if counts:
                fractions.append(fraction)

        # Imbalance across the co-processing devices (NICs excluded).
        if fractions:
            mean = sum(fractions) / len(fractions)
            imbalance = (max(fractions) / mean) if mean > 0.0 else 0.0
            put(self.bank.get_or_create(DEVICE_IMBALANCE, ()), at, imbalance)

        # α/β-modelled offered load and observed-vs-model ratio per
        # registered link class.
        raw["net_busy"] = net_busy
        net_delta = net_busy - prev.get("net_busy", 0.0)
        for link, alpha, bytes_per_s, util_series, ratio_series in self._link_plan:
            msgs = link_msgs.get(link, 0.0)
            nbytes = link_bytes.get(link, 0.0)
            raw[f"msgs::{link}"] = msgs
            raw[f"bytes::{link}"] = nbytes
            modelled = (
                (msgs - prev.get(f"msgs::{link}", 0.0)) * alpha
                + (nbytes - prev.get(f"bytes::{link}", 0.0)) / bytes_per_s
            )
            utilization = (modelled / dt) if dt > 0.0 else 0.0
            put(util_series, at, utilization)
            # Observed NIC busy over modelled wire seconds: > 1 means
            # the wire is slower than the α/β model says it should be.
            ratio = (net_delta / modelled) if modelled > 1e-12 else 0.0
            put(ratio_series, at, ratio)
        self._prev = raw
