"""Simulated-clock time-series sampling over the metrics registry.

The metrics registry (PR 2) answers "how much, in total?"; this module
answers "how much, *when*?".  A :class:`MetricSampler` attached to a
:class:`~repro.simulate.trace.Trace` snapshots every registered counter
and gauge onto a fixed grid of simulated instants ``t_k = k *
sample_interval`` and records the values in ring-bounded
:class:`Series`, which store only the instants where a value changes.
Windowed aggregates (the alert rules' rate, mean, max, p50/p99; the
autoscaler's mean and max) are computed lazily from the stored runs.
A snapshot writes only the series the registry reports written since
the previous one, plus the derived probes that can have moved; every
other series keeps its open run, which the bank extends before any
read.  So sampling costs per change, not per series per grid instant,
and *nothing* between grid crossings.

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
from bisect import bisect_left, bisect_right, insort
from math import copysign, isfinite
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

#: snapshot-plan roles: the derived probe a sampled value feeds
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

    def extend(self, stop: int) -> None:
        """Repeat the open run's value at every grid index below *stop*:
        the store, ring trims included, that one :meth:`sample` per index
        would leave.  No-op without an open run."""
        if self._last is None or not self._k or stop <= self._end:
            return
        self._end = stop
        excess = stop - self._k[0] - self.capacity
        if excess > 0:  # trim the oldest run heads in one step
            self.dropped += excess
            ks, head = self._k, self._k[0] + excess
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
    def get_or_create(self, name: str, key: LabelKey) -> Series:
        series = self._series.get((name, key))
        if series is None:
            series = Series(name, dict(key), capacity=self.capacity,
                            interval=self.interval)
            self._series[(name, key)] = series
            self._order = None
        else:
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
        for sname, key in self._sorted_keys():
            if sname != name:
                continue
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


class MetricSampler:
    """Tick-driven grid sampler over a trace's metrics registry.

    Attach with :meth:`Trace.attach_sampler`; the trace then calls
    :meth:`advance` at the top of every mutation, and the sampler emits
    one snapshot per elapsed grid instant ``k * interval``.  A snapshot
    at grid time *g* therefore reflects every update applied strictly
    before the first mutation at simulated time ``>= g`` — a
    deterministic function of the (deterministic) event stream.

    A snapshot writes only what may have changed since the previous
    one: the series the registry reports written
    (:meth:`MetricsRegistry.track_writes`), and the derived probes whose
    inputs were written or whose last value was not ``0.0``.  Every
    other series repeats its value, which its open run already says
    (:class:`SeriesBank` extends open runs before any read).
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
        #: the registry's write set while bound (see
        #: :meth:`MetricsRegistry.track_writes`)
        self._dirty: set[Any] | None = None
        #: snapshot plan: the bank series of every write-set entry seen,
        #: planned the first time it is written
        self._plan: dict[Any, Series] = {}
        #: busy-union devices: key -> [samples, prev key, fraction
        #: series, counts toward the imbalance]
        self._devices: dict[LabelKey, list] = {}
        self._counted: list[LabelKey] = []  # sorted non-NIC device keys
        #: summed roles: role -> (samples, [sorted keys], [their sum names])
        self._terms: dict[int, tuple[dict, list[LabelKey], list[str]]] = {}
        self._link_plan: list[tuple] = []
        self._links_stale = False  # a link model changed since the last snapshot
        #: previous raw values backing the derived probes
        self._prev: dict[str, float] = {}
        #: last busy fraction per device, and the devices where it was
        #: not 0.0 (they must be re-derived even when idle)
        self._fractions: dict[LabelKey, float] = {}
        self._hot: set[LabelKey] = set()
        self._links_hot = False  # some link utilization/ratio was not 0.0
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
        self._link_models[link] = (float(latency_s), float(bytes_per_s))
        self._links_stale = True

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
        k = self._k
        if k * interval > now:
            return
        self._snapshot(k * interval, k)
        k += 1
        if k * interval <= now:
            # The registry cannot change within one call, so this
            # instant only drops the derived probes to 0.0, and every
            # later one repeats it: the open runs already say so.
            self._snapshot(k * interval, k)
            last = max(k, int(now / interval))
            while last * interval > now:
                last -= 1
            while (last + 1) * interval <= now:
                last += 1
            self._last_t = last * interval
            k = last + 1
        self._k = self.bank.grid_end = k

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
        # No snapshot follows: stop tracking writes and release the plan.
        self._trace.metrics.untrack_writes()
        self._dirty = None
        self._plan = {}
        self._devices = {}
        self._terms = {}
        self._link_plan = []

    # ------------------------------------------------------------------
    def _plan_entry(
        self, entry: tuple[str, LabelKey] | CounterChild, name: str, key: LabelKey
    ) -> Series:
        """The bank series of a write-set entry seen for the first time:
        a ``(metric, key)`` pair or the counter child that wrote.  A
        series new to the bank is filed under the derived probe it
        feeds, in sorted key order, so sums add in the order of a sorted
        registry walk."""
        assert self._trace is not None
        bank = self.bank
        series = bank._series.get((name, key))  # planned via another handle?
        if series is None:
            series = bank.get_or_create(name, key)
            role = _ROLES.get(name)
            labels = dict(key) if role is not None else {}
            if role == _BUSY_UNION:
                device = labels.get("device", "")
                counts = not device.startswith("net.")
                self._devices[key] = [
                    self._trace.metrics._metrics[name]._samples,
                    f"busy::{device}",
                    bank.get_or_create(DEVICE_BUSY_FRACTION, key),
                    counts,
                ]
                if counts:
                    insort(self._counted, key)
            elif role == _NET_BUSY and labels.get("kind") == "net":
                self._add_term(role, name, key, "")
            elif role in (_LINK_MSGS, _LINK_BYTES):
                self._add_term(role, name, key, labels.get("link", ""))
        self._plan[entry] = series
        return series

    def _add_term(self, role: int, metric: str, key: LabelKey, name: str) -> None:
        """File *key* of *metric* under sum *name* of *role*."""
        assert self._trace is not None
        samples = self._trace.metrics._metrics[metric]._samples
        _, keys, names = self._terms.setdefault(role, (samples, [], []))
        at = bisect_left(keys, key)
        keys.insert(at, key)
        names.insert(at, name)

    def _build_link_plan(self) -> None:
        """One row per registered link model, in link order."""
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

    def _sums(self, role: int) -> dict[str, float]:
        """The values of one summed role, added per sum name in sorted
        key order."""
        samples, keys, names = self._terms.get(role, ({}, (), ()))
        out: dict[str, float] = {}
        for key, name in zip(keys, names):
            out[name] = out.get(name, 0.0) + samples[key]
        return out

    def _snapshot(self, t: float, k: int | None) -> None:
        """Sample what changed at grid instant *k*, or every series at
        the off-grid end anchor *t* when *k* is None."""
        assert self._dirty is not None and self._trace is not None
        metrics = self._trace.metrics._metrics
        plan = self._plan
        busy: set[LabelKey] = set()
        roles: set[int] = set()
        if k is None:
            stop = self._k

            def put(series: Series, value: float) -> None:
                series.extend(stop)
                series.append(t, value)
        else:
            def put(series: Series, value: float) -> None:
                if series._end < k:
                    series.extend(k)
                series.sample(k, value)

        for entry in self._dirty:
            if isinstance(entry, tuple):
                name, key = entry
            else:
                name, key = entry.name, entry.key
            series = plan.get(entry)
            if series is None:
                series = self._plan_entry(entry, name, key)
            if k is None or series._end > k:  # also written via another handle
                continue
            put(series, metrics[name]._samples[key])
            role = _ROLES.get(name)
            if role == _BUSY_UNION:
                busy.add(key)
            elif role is not None:
                roles.add(role)
        self._dirty.clear()
        if k is None:  # every registry series, once
            for (name, key), series in self.bank._series.items():
                metric = metrics.get(name)
                if metric is not None:
                    put(series, metric._samples[key])
        full = k is None or self._links_stale
        if self._links_stale:
            self._build_link_plan()
            self._links_stale = False
        self._derived(t, put, busy, roles, full)
        self._last_t = t

    def _derived(
        self,
        t: float,
        put: Any,
        busy: set[LabelKey],
        roles: set[int],
        full: bool,
    ) -> None:
        """Re-derive the probes whose inputs were written (*busy*
        devices, summed *roles*) or whose last value was not 0.0; every
        probe when *full*.  A skipped probe would read exactly 0.0
        again."""
        prev = self._prev
        last_t = self._last_t
        dt = (t - last_t) if last_t is not None else 0.0

        # Per-device busy fraction from the incremental union counter.
        fractions, hot = self._fractions, self._hot
        counted = False
        for key in (list(self._devices) if full else busy | hot):
            samples, prev_key, series, counts = self._devices[key]
            value = samples[key]
            delta = value - prev.get(prev_key, 0.0)
            fraction = (delta / dt) if dt > 0.0 else 0.0
            prev[prev_key] = value
            put(series, fraction)
            fractions[key] = fraction
            if _is_zero(fraction):
                hot.discard(key)
            else:
                hot.add(key)
            counted = counted or counts

        # Imbalance across the co-processing devices (NICs excluded),
        # summed in sorted device order.
        if counted:
            values = [fractions[key] for key in self._counted]
            mean = sum(values) / len(values)
            imbalance = (max(values) / mean) if mean > 0.0 else 0.0
            put(self.bank.get_or_create(DEVICE_IMBALANCE, ()), imbalance)

        # α/β-modelled offered load and observed-vs-model ratio per
        # registered link class.
        if full or _NET_BUSY in roles:
            net_busy = self._sums(_NET_BUSY).get("", 0.0)
        else:
            net_busy = prev.get("net_busy", 0.0)
        net_delta = net_busy - prev.get("net_busy", 0.0)
        prev["net_busy"] = net_busy
        if not (full or self._links_hot or _LINK_MSGS in roles
                or _LINK_BYTES in roles):
            return
        link_msgs = self._sums(_LINK_MSGS)
        link_bytes = self._sums(_LINK_BYTES)
        self._links_hot = False
        for link, alpha, bytes_per_s, util_series, ratio_series in self._link_plan:
            msgs = link_msgs.get(link, 0.0)
            nbytes = link_bytes.get(link, 0.0)
            modelled = (
                (msgs - prev.get(f"msgs::{link}", 0.0)) * alpha
                + (nbytes - prev.get(f"bytes::{link}", 0.0)) / bytes_per_s
            )
            prev[f"msgs::{link}"] = msgs
            prev[f"bytes::{link}"] = nbytes
            utilization = (modelled / dt) if dt > 0.0 else 0.0
            put(util_series, utilization)
            # Observed NIC busy over modelled wire seconds: > 1 means
            # the wire is slower than the α/β model says it should be.
            ratio = (net_delta / modelled) if modelled > 1e-12 else 0.0
            put(ratio_series, ratio)
            if not (_is_zero(utilization) and _is_zero(ratio)):
                self._links_hot = True


def _is_zero(value: float) -> bool:
    """Whether *value* is bitwise ``0.0`` (``-0.0`` is not)."""
    return value == 0.0 and copysign(1.0, value) > 0.0
