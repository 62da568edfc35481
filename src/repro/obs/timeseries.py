"""Simulated-clock time-series sampling over the metrics registry.

The metrics registry (PR 2) answers "how much, in total?"; this module
answers "how much, *when*?".  A :class:`MetricSampler` attached to a
:class:`~repro.simulate.trace.Trace` snapshots every registered counter
and gauge onto a fixed grid of simulated instants ``t_k = k *
sample_interval`` and records the values in ring-bounded
:class:`Series`, which store only the instants where a value changes.
Windowed aggregates (the alert rules' rate, mean, max, p50/p99; the
autoscaler's mean and max) are computed lazily from the stored runs.
A snapshot writes the series the registry reports written since the
previous one and derives every probe below from the registry; every
other series keeps its open run, which the bank extends before any
read.  So sampling costs per change plus the probes, not per series
per grid instant, and *nothing* between grid crossings.

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
instant and the end anchor, the signals the rule engine
(:mod:`repro.obs.rules`) watches:

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
from bisect import bisect_left, bisect_right, insort
from functools import reduce
from math import copysign, isfinite
from operator import add
from typing import TYPE_CHECKING, Any, Iterator

from repro._validation import require_nonnegative, require_positive
from repro.obs.metrics import (
    COMM_BYTES,
    COMM_MESSAGES,
    CounterChild,
    DEVICE_BUSY_SECONDS,
    DEVICE_BUSY_UNION_SECONDS,
    LabelKey,
    _label_key,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulate.trace import Trace

#: default sampling grid pitch in simulated seconds.  The bundled
#: workloads have makespans in the 0.02-1 s range, so 1 ms yields tens
#: to hundreds of grid instants per series — enough for the built-in
#: rules' windows.  Snapshot work grows with the series written per
#: instant, not with the series count (see MetricSampler).
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

#: snapshot-plan roles: the derived probe input a registry series feeds
_BUSY_UNION, _NET_BUSY, _LINK_MSGS, _LINK_BYTES = range(4)
_ROLES = {
    DEVICE_BUSY_UNION_SECONDS: _BUSY_UNION,
    DEVICE_BUSY_SECONDS: _NET_BUSY,  # sums its kind="net" series only
    COMM_MESSAGES: _LINK_MSGS,
    COMM_BYTES: _LINK_BYTES,
}


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

    __slots__ = ("name", "key", "interval", "capacity", "dropped",
                 "_k", "_v", "_end", "_tail", "_last")

    def __init__(
        self,
        name: str,
        key: LabelKey = (),
        capacity: int = DEFAULT_SERIES_CAPACITY,
        interval: float | None = None,
    ) -> None:
        if capacity < 2:
            raise ValueError(f"series capacity must be >= 2, got {capacity}")
        self.name = name
        #: the sorted ``(label, value)`` pairs (a bank passes the
        #: registry's own key)
        self.key = key
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

    @property
    def labels(self) -> dict[str, str]:
        """The label set, as a fresh dict in sorted label order."""
        return dict(self.key)

    # ------------------------------------------------------------------
    def sample(self, k: int, value: float) -> None:
        """Record the grid sample at ``k * interval``, the index right
        after the last one (a series' first sample may start anywhere).
        A value bitwise equal to the open run's (``0.0`` and ``-0.0``
        differ) extends it; anything else starts a new run."""
        if k != self._end and self._k:
            raise ValueError(
                f"series {self.name!r}: grid sample {k} does not follow "
                f"{self._end - 1}"
            )
        last = self._last
        if value == last and (value or copysign(1.0, value) == copysign(1.0, last)):
            self._end = k + 1  # the open run reaches k
        else:
            if value != value:
                raise ValueError(
                    f"series {self.name!r}: NaN sample at grid index {k}"
                )
            if self._tail:
                raise ValueError(
                    f"series {self.name!r}: grid sample {k} after an "
                    f"off-grid point"
                )
            if self.interval is None:
                raise ValueError(f"series {self.name!r}: no sampling grid")
            value = float(value)
            self._k.append(k)
            self._v.append(value)
            self._end = k + 1
            self._last = value
        over = k + 1 - self._k[0] - self.capacity
        if over > 0:
            self._trim(over)

    def extend(self, stop: int) -> None:
        """Repeat the open run's value at every grid index below *stop*:
        the store, ring trims included, that one :meth:`sample` per index
        would leave.  No-op without an open run."""
        if self._last is None or not self._k or stop <= self._end:
            return
        self._end = stop
        over = stop - self._k[0] - self.capacity
        if over > 0:
            self._trim(over)

    def _trim(self, over: int) -> None:
        """Drop the *over* oldest grid samples, whole run heads at once;
        the newest run keeps at least one."""
        self.dropped += over
        ks, head = self._k, self._k[0] + over
        first = bisect_right(ks, head) - 1
        del ks[:first]
        del self._v[:first]
        ks[0] = head

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
        tail = self._tail
        tail.append((t, float(value)))
        self._last = None
        ks = self._k
        if (self._end - ks[0] if ks else 0) + len(tail) > self.capacity:
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
        return reduce(add, [v for _, v in pts], 0) / len(pts)

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
            "labels": self.labels,
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
    """All sampled series of one run, keyed by (name, label set).

    A sampler writes a series only when its value may have changed and
    leaves the others' runs open; ``grid_end`` is one past the last grid
    index it has covered.  Every read below first extends the open runs
    to ``grid_end``, so readers see exactly the per-instant store.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SERIES_CAPACITY,
        interval: float | None = None,
    ) -> None:
        self.capacity = capacity
        #: sampling grid pitch of the series this bank creates
        self.interval = interval
        #: one past the last grid index the owning sampler has covered
        self.grid_end = 0
        self._series: dict[tuple[str, LabelKey], Series] = {}
        #: the keys of ``_series`` in sorted order (None: to sort again)
        self._order: list[tuple[str, LabelKey]] | None = None

    # ------------------------------------------------------------------
    def _add(self, name: str, key: LabelKey) -> Series:
        """A series the bank does not hold yet."""
        series = self._series[name, key] = Series(
            name, key, self.capacity, self.interval
        )
        self._order = None
        return series

    def get_or_create(self, name: str, key: LabelKey) -> Series:
        series = self._series.get((name, key))
        if series is None:
            return self._add(name, key)
        series.extend(self.grid_end)
        return series

    def _sorted_keys(self) -> list[tuple[str, LabelKey]]:
        """The series keys in (name, labels) order, sorted once per
        batch of new series: readers ask many times per run."""
        if self._order is None:
            self._order = sorted(self._series)
        return self._order

    def matching(self, name: str, labels: dict[str, str] | None = None) -> list[Series]:
        """All series of *name* whose labels contain *labels* as a
        subset, in sorted label order (deterministic)."""
        want = {k: str(v) for k, v in (labels or {}).items()}
        out = []
        order = self._sorted_keys()
        for at in range(bisect_left(order, (name,)), len(order)):
            sname, key = order[at]
            if sname != name:
                break
            have = dict(key)
            if all(have.get(k) == v for k, v in want.items()):
                series = self._series[(sname, key)]
                series.extend(self.grid_end)
                out.append(series)
        return out

    def __iter__(self) -> Iterator[Series]:
        for key in self._sorted_keys():
            series = self._series[key]
            series.extend(self.grid_end)
            yield series

    def __len__(self) -> int:
        return len(self._series)

    @property
    def total_points(self) -> int:
        total = 0
        for series in self._series.values():
            series.extend(self.grid_end)
            total += len(series)
        return total

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


class _Device:
    """The busy-fraction state of one busy-union device."""

    __slots__ = ("key", "samples", "series", "counts", "prev")

    def __init__(self, key: LabelKey, samples: dict, series: Series,
                 counts: bool) -> None:
        self.key = key
        self.samples = samples  # the busy-union counter's samples
        self.series = series  # its prs_device_busy_fraction series
        self.counts = counts  # toward the imbalance (NICs do not)
        self.prev = 0.0  # busy-union seconds at the previous snapshot


class _Link:
    """The α/β model, probe series and last summed totals of one link
    class."""

    __slots__ = ("name", "alpha", "bytes_per_s", "util", "ratio",
                 "msgs", "nbytes")

    def __init__(self, name: str, bank: SeriesBank) -> None:
        self.name = name
        self.alpha = 0.0
        self.bytes_per_s = 1.0
        key = _label_key({"link": name})
        self.util = bank.get_or_create(LINK_UTILIZATION, key)
        self.ratio = bank.get_or_create(LINK_MODEL_RATIO, key)
        self.msgs = 0.0  # message and byte totals at the previous snapshot
        self.nbytes = 0.0


#: a snapshot-plan row: the series and the registry samples dict and
#: key it reads
_Row = tuple[Series, dict, LabelKey]


class MetricSampler:
    """Tick-driven grid sampler over a trace's metrics registry.

    Attach with :meth:`Trace.attach_sampler`; the trace then calls
    :meth:`advance` whenever a mutation reaches :attr:`next_t`, and the
    sampler emits one snapshot per elapsed grid instant ``k *
    interval``.  A snapshot at grid time *g* therefore reflects every
    update applied strictly before the first mutation at simulated
    time ``>= g`` — a deterministic function of the (deterministic)
    event stream.

    A snapshot samples the registry series written since the previous
    one and derives every probe from the registry.  Each series is
    planned once, the first time the registry's write set
    (:meth:`MetricsRegistry.track_writes`) names it, into a row that
    every later write goes through; planning also files a probe input
    under its probe in sorted key order, so each snapshot re-sums it in
    the order of a sorted registry walk.  An unwritten series repeats
    its value, which its open run already says (:class:`SeriesBank`
    extends open runs before any read).
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
        #: time of the next grid instant, ``_k * interval`` (inf once
        #: finalized): a tick before it has nothing to sample
        self.next_t = 0.0
        self._last_t: float | None = None  # time of the latest snapshot
        #: α/β wire models per link class: link -> (alpha_s, bytes_per_s)
        self._link_models: dict[str, tuple[float, float]] = {}
        #: the registry's write set while bound (see
        #: :meth:`MetricsRegistry.track_writes`)
        self._dirty: set[Any] | None = None
        #: write-set entry -> its series' row
        self._plan: dict[Any, _Row] = {}
        #: (metric, key) -> row, one per registry series
        self._rows: dict[tuple[str, LabelKey], _Row] = {}
        self._devices: list[_Device] = []  # busy-union devices in key order
        self._imbalance: Series | None = None
        #: summed roles: role -> the registry samples dict they read and
        #: their keys per sum name (a link, or "" for the NIC busy
        #: seconds), in key order
        self._sum_keys: dict[int, tuple[dict, dict[str, list[LabelKey]]]] = {}
        self._links: dict[str, _Link] = {}
        self._link_plan: list[_Link] = []  # in link order
        self._net_busy = 0.0  # summed NIC busy seconds at the last snapshot
        self.finalized = False

    # ------------------------------------------------------------------
    def bind(self, trace: "Trace") -> None:
        self._trace = trace
        self._dirty = trace.metrics.track_writes()

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
        model = self._link_models[link] = (float(latency_s), float(bytes_per_s))
        row = self._links.get(link)
        if row is None:  # a link's totals carry over a re-registration
            row = self._links[link] = _Link(link, self.bank)
            self._link_plan = [self._links[name] for name in sorted(self._links)]
        row.alpha, row.bytes_per_s = model

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
        if trace is None or now < self.next_t:
            return
        prof = trace.selfprof
        prof.begin("obs:sampler")
        try:
            trace.metrics.before_read()
            self._backfill(now)
        finally:
            prof.end()

    def _backfill(self, now: float) -> None:
        interval = self.interval
        k = self._k
        if k * interval > now:
            return
        self._snapshot(k)
        k += 1
        if k * interval <= now:
            # The registry cannot change within one call, so this
            # instant only drops the derived probes to 0.0, and every
            # later one repeats it: the open runs already say so.
            self._snapshot(k)
            last = max(k, int(now / interval))
            while last * interval > now:
                last -= 1
            while (last + 1) * interval <= now:
                last += 1
            self._last_t = last * interval
            k = last + 1
        self._k = self.bank.grid_end = k
        self.next_t = k * interval

    def finalize(self, end: float) -> None:
        """Emit the remaining grid instants up to *end* plus one final
        off-grid snapshot at *end* itself (end-state anchor), then stop
        accepting ticks."""
        if self._trace is None or self.finalized:
            return
        self._trace.metrics.before_read()
        self._backfill(end)
        if self._last_t is None or self._last_t < end:
            self._anchor(end)
        self.finalized = True
        self.next_t = float("inf")
        # No snapshot follows: stop tracking writes and release the plan.
        self._trace.metrics.untrack_writes()
        self._dirty = None
        self._plan = {}
        self._rows = {}
        self._devices = []
        self._sum_keys = {}
        self._links = {}
        self._link_plan = []

    # ------------------------------------------------------------------
    def _plan_entry(self, entry: tuple[str, LabelKey] | CounterChild) -> _Row:
        """The row of a write-set entry seen for the first time: a
        ``(metric, key)`` pair or the counter child that wrote.  Every
        handle on one series shares its row."""
        if type(entry) is tuple:
            name, key = ident = entry
        else:
            name, key = ident = entry.name, entry.key
        row = self._rows.get(ident)
        if row is None:
            row = self._rows[ident] = self._new_row(name, key)
        self._plan[entry] = row
        return row

    def _new_row(self, name: str, key: LabelKey) -> _Row:
        """Create the bank series of a registry series and file it under
        the derived probe it feeds, in sorted key order, so a re-sum adds
        in the order of a sorted registry walk."""
        assert self._trace is not None
        samples = self._trace.metrics._metrics[name]._samples
        role = _ROLES.get(name)
        labels = dict(key)
        if role == _BUSY_UNION:
            device = _Device(
                key, samples, self.bank.get_or_create(DEVICE_BUSY_FRACTION, key),
                not labels.get("device", "").startswith("net."),
            )
            devices = self._devices
            devices.insert(bisect_left(devices, key, key=lambda d: d.key), device)
        elif role is not None and (role != _NET_BUSY or labels.get("kind") == "net"):
            # only a NIC's busy seconds are summed
            names = self._sum_keys.setdefault(role, (samples, {}))[1]
            insort(names.setdefault(labels.get("link", ""), []), key)
        return self.bank._add(name, key), samples, key

    def _sums(self, role: int) -> dict[str, float]:
        """The values of one summed role, folded per sum name in sorted
        key order."""
        if role not in self._sum_keys:
            return {}
        samples, names = self._sum_keys[role]
        get = samples.__getitem__
        return {name: reduce(add, map(get, keys), 0.0)
                for name, keys in names.items()}

    # ------------------------------------------------------------------
    def _snapshot(self, k: int) -> None:
        """Sample the series written since the previous snapshot at grid
        instant *k*, then derive every probe."""
        assert self._dirty is not None
        plan = self._plan
        for entry in self._dirty:
            row = plan.get(entry)
            if row is None:
                row = self._plan_entry(entry)
            series, samples, key = row
            if series._end > k:  # also written through another handle
                continue
            if series._end < k:
                series.extend(k)
            series.sample(k, samples[key])
        self._dirty.clear()

        def put(series: Series, value: float) -> None:
            if series._end < k:
                series.extend(k)
            series.sample(k, value)

        t = k * self.interval
        self._derived(t, put)
        self._last_t = t

    def _anchor(self, t: float) -> None:
        """The off-grid end-state point of every series at *t*."""
        assert self._dirty is not None
        stop = self._k

        def put(series: Series, value: float) -> None:
            series.extend(stop)
            series.append(t, value)

        for entry in self._dirty:
            if entry not in self._plan:
                self._plan_entry(entry)
        self._dirty.clear()
        for series, samples, key in self._rows.values():
            put(series, samples[key])
        self._derived(t, put)
        self._last_t = t

    def _derived(self, t: float, put: Any) -> None:
        """Derive every probe at *t* from the registry and *put* it."""
        last_t = self._last_t
        dt = (t - last_t) if last_t is not None else 0.0

        # Per-device busy fraction from the incremental union counter,
        # and the imbalance across the co-processing devices (NICs
        # excluded), summed in sorted device order.
        values = []
        for device in self._devices:
            value = device.samples[device.key]
            fraction = ((value - device.prev) / dt) if dt > 0.0 else 0.0
            device.prev = value
            put(device.series, fraction)
            if device.counts:
                values.append(fraction)
        if values:
            mean = reduce(add, values, 0) / len(values)
            imbalance = (max(values) / mean) if mean > 0.0 else 0.0
            if self._imbalance is None:
                self._imbalance = self.bank.get_or_create(DEVICE_IMBALANCE, ())
            put(self._imbalance, imbalance)

        # α/β-modelled offered load and observed-vs-model ratio per
        # registered link class.
        net_busy = self._sums(_NET_BUSY).get("", 0.0)
        net_delta = net_busy - self._net_busy
        self._net_busy = net_busy
        link_msgs = self._sums(_LINK_MSGS)
        link_bytes = self._sums(_LINK_BYTES)
        for link in self._link_plan:
            msgs = link_msgs.get(link.name, 0.0)
            nbytes = link_bytes.get(link.name, 0.0)
            modelled = (
                (msgs - link.msgs) * link.alpha
                + (nbytes - link.nbytes) / link.bytes_per_s
            )
            link.msgs, link.nbytes = msgs, nbytes
            put(link.util, (modelled / dt) if dt > 0.0 else 0.0)
            # Observed NIC busy over modelled wire seconds: > 1 means
            # the wire is slower than the α/β model says it should be.
            put(link.ratio, (net_delta / modelled) if modelled > 1e-12 else 0.0)
