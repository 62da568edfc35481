"""Execution traces of simulated runs, backed by the observability layer.

Every simulated activity (kernel, memory copy, network message, CPU block)
is recorded once, as a device-block span; :class:`Trace` aggregates those
record spans into the utilization and timeline views the benchmarks
report.  A :class:`TaskRecord` is a read-side view built on demand from a
record span (:attr:`Trace.records`), never stored.

Since the observability layer landed, a trace is also the front door to
it: each trace owns a :class:`~repro.obs.MetricsRegistry` and a
:class:`~repro.obs.SpanTracer`, and every record/phase call feeds both —

* :meth:`record` appends the record's device-block span, parented under
  the rank's currently open phase when the device has been bound to a
  rank, and nothing else.  The per-device counters it feeds (busy
  seconds — both raw occupancy and overlap-merged union — flops, bytes,
  task counts) are derived: :meth:`_fold` replays the records appended
  since the last fold before any registry read, before a sampler
  snapshot and in :meth:`busy_time` / :meth:`finalize`, with the float
  adds a per-record count would make;
* :meth:`begin_phase` / :meth:`end_phase` bracket runtime phases live,
  maintaining the job -> iteration -> phase span hierarchy per rank.

``phase_spans`` is the tracer's closed phase spans (each carries its
``rank`` and ``iteration`` attrs) and ``phase_breakdown`` sums them per
iteration.  The record queries cover the whole trace; online consumers
like the adaptive-feedback policy read the monotonic counters instead
(snapshot-and-diff, no trace re-scans).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import (
    DEVICE_BUSY_SECONDS,
    DEVICE_BUSY_UNION_SECONDS,
    DEVICE_BYTES,
    DEVICE_FLOPS,
    DEVICE_TASKS,
    PHASE_SECONDS,
    CounterChild,
    IntervalUnion,
    MetricSampler,
    NULL_LOG,
    NULL_PROFILER,
    MetricsRegistry,
    Span,
    SpanTracer,
)
from repro.obs.analyze.audit import DecisionLog

#: span track membership-transition spans land on (their own lane in
#: exports, mirroring the ``alerts`` track)
MEMBERSHIP_TRACK = "membership"

#: span category of membership spans — analysis passes that walk the
#: phase tree or pair comm spans skip this category entirely
MEMBERSHIP_CATEGORY = "membership"

#: glyphs :meth:`Trace.gantt` renders each record kind with; unknown
#: kinds fall back to their first alphanumeric character, then ``*``
GANTT_GLYPHS = {
    "compute": "#",
    "h2d": ">",
    "d2h": "<",
    "net": "~",
    "shuffle": "x",
    "reduce": "+",
    "overhead": ".",
    "recv": "?",
}


def gantt_legend() -> str:
    """One-line legend for the gantt glyphs (``run --report`` timeline)."""
    known = " ".join(f"{ch}={kind}" for kind, ch in GANTT_GLYPHS.items())
    return f"legend: {known} (other kinds: first letter, else *)"


@dataclass(frozen=True)
class TaskRecord:
    """One timed activity in a simulation.

    ``kind`` is a short category tag: ``"compute"``, ``"h2d"``, ``"d2h"``,
    ``"net"``, ``"shuffle"``, ``"reduce"``, ``"overhead"`` ...
    """

    label: str
    device: str
    kind: str
    start: float
    end: float
    nbytes: float = 0.0
    flops: float = 0.0

    def __post_init__(self) -> None:
        if not self.end >= self.start:  # also rejects NaN bounds
            raise ValueError(
                f"task {self.label!r}: end {self.end} precedes start {self.start}"
            )


def _record_of(span: Span) -> TaskRecord:
    """The view of one record span: label/device/kind are its
    name/track/category, nbytes/flops its first two attrs."""
    a = span.attrs
    return TaskRecord(span.name, span.track, span.category, span.start,
                      span.end, a["nbytes"], a["flops"])


class Trace:
    """An append-only log of task records with summary queries."""

    def __init__(self) -> None:
        #: the record spans, in insertion order (each record's only store)
        self._record_spans: list[Span] = []
        #: the run's metrics registry (shared with policies and the CLI)
        self.metrics = MetricsRegistry()
        #: the run's hierarchical span store
        self.tracer = SpanTracer()
        #: the run's scheduler-decision audit log (pure bookkeeping:
        #: appending records never perturbs the simulated schedule)
        self.audit = DecisionLog()
        #: optional tick-driven time-series sampler (attach_sampler);
        #: every mutation below ticks it first, so samples reflect the
        #: pre-mutation registry state at each elapsed grid instant
        self.sampler: MetricSampler | None = None
        #: host-side :class:`~repro.obs.selfprof.SelfProfiler`
        #: (attach_selfprof), else the do-nothing ``NULL_PROFILER``.
        #: The record hot path and the sampler are bracketed in ``obs:``
        #: wall-clock scopes so the observability layer's own host cost
        #: is attributed, not hidden inside whichever subsystem happened
        #: to call it.
        self.selfprof = NULL_PROFILER
        #: structured :class:`~repro.obs.log.EventLog` (attach_log),
        #: else the do-nothing ``NULL_LOG``.  Sites call it
        #: unconditionally; emitting is pure host bookkeeping, so the
        #: simulated schedule is bitwise identical with or without
        #: logging — the same contract the sampler and selfprof keep.
        self.log = NULL_LOG
        #: the record counters and busy unions are folded in on read:
        #: the registry calls :meth:`_fold` before each of its reads
        self.metrics.before_read = self._fold
        #: how many record spans :meth:`_fold` has replayed
        self._folded = 0
        self._busy_union: dict[str, IntervalUnion] = {}
        #: (device, kind) -> bound per-record counters (_device_counters)
        self._counter_children: dict[tuple[str, str], tuple[CounterChild, ...]] = {}
        #: next message id handed to the communicator(s); trace-owned so
        #: ids stay unique across the worlds of rank-restart epochs and
        #: pair each message's send and recv spans
        self._next_msg_id = 1
        self._device_rank: dict[str, int] = {}
        self._open_phase: dict[int, Span] = {}
        self._iter_span: dict[int, Span] = {}
        self._job_span: dict[int, Span] = {}

    # ------------------------------------------------------------------
    def attach_sampler(self, sampler: MetricSampler) -> MetricSampler:
        """Bind a :class:`~repro.obs.MetricSampler` to this trace; it
        will be ticked by every mutation from here on.  Pure
        bookkeeping: sampling never schedules engine events, so the
        simulated schedule is bitwise identical with or without it."""
        sampler.bind(self)
        self.sampler = sampler
        return sampler

    def attach_selfprof(self, profiler) -> None:
        """Bind a host-side wall-clock profiler to this trace.  Pure
        host bookkeeping, like the sampler: profiling never schedules
        engine events, so the simulated schedule is bitwise identical
        with or without it."""
        self.selfprof = profiler

    def attach_log(self, log) -> None:
        """Bind a structured :class:`~repro.obs.log.EventLog` to this
        trace and hand it the live rank -> open-phase map, so every
        record it takes inherits the enclosing span id (plus the span's
        iteration / dag_node attrs).  Pure host bookkeeping — the
        simulated schedule is bitwise identical with or without it."""
        log.bind_phases(self._open_phase)
        self.log = log

    def rank_of(self, device: str) -> int | None:
        """The rank a device was bound to (None for unbound tracks)."""
        return self._device_rank.get(device)

    def tick(self, now: float) -> None:
        """Advance the attached sampler once *now* reaches its next
        sampling-grid instant (no-op without one, and one comparison
        before then)."""
        sampler = self.sampler
        if sampler is not None and now >= sampler.next_t:
            sampler.advance(now)

    # ------------------------------------------------------------------
    def add(self, record: TaskRecord, attrs: dict | None = None) -> None:
        """Append *record* (stored as its span, like :meth:`record`)."""
        self.record(record.label, record.device, record.kind, record.start,
                    record.end, record.nbytes, record.flops, attrs)

    def record(
        self,
        label: str,
        device: str,
        kind: str,
        start: float,
        end: float,
        nbytes: float = 0.0,
        flops: float = 0.0,
        attrs: dict | None = None,
    ) -> None:
        """Append one task record, stored as its device-block span (attrs:
        ``nbytes``, ``flops``, then *attrs*, which may not set either).

        The call validates its arguments, ticks the sampler and appends
        the span; nothing else.  The per-device counters and busy union
        it feeds are folded in on read (:meth:`_fold`), so a bad value
        fails here, naming the task, not at some later read.
        """
        if not end >= start:  # also rejects NaN bounds
            raise ValueError(
                f"task {label!r}: end {end} precedes start {start}"
            )
        if not (nbytes >= 0 and flops >= 0):  # also rejects NaN
            raise ValueError(
                f"task {label!r}: negative or NaN nbytes {nbytes} or "
                f"flops {flops}"
            )
        span_attrs = {"nbytes": nbytes, "flops": flops}
        if attrs:
            if "nbytes" in attrs or "flops" in attrs:
                raise ValueError(
                    f"task {label!r}: attrs may not set nbytes or flops"
                )
            span_attrs.update(attrs)
        prof = self.selfprof
        prof.begin("obs:trace.record")
        try:
            self.tick(end)
            # The bounds are checked above; the tracer adopts the freshly
            # built attrs dict instead of copying it.
            self._record_spans.append(self.tracer._new_span(
                label, device, start, end, self._block_parent(device, start),
                kind, span_attrs,
            ))
        finally:
            prof.end()

    def _fold(self) -> None:
        """Bring the record counters and busy unions up to date.

        Replays the records appended since the last fold, in record
        order, through the same ``CounterChild.inc`` calls that counting
        at the record made, so every value is bitwise what it gave.  A
        series is created at the record that first writes it (a device
        and kind's first record, its device's first nonzero flops, its
        first nonzero bytes, its first busy-union gain), and each series
        a fold writes joins the registry's write set.
        """
        spans = self._record_spans
        done = self._folded
        if done == len(spans):
            return
        self._folded = len(spans)  # first: a registry read below folds nothing
        counters = self._counter_children
        unions = self._busy_union
        for span in spans[done:]:
            device = span.track
            children = counters.get((device, span.category))
            if children is None:
                children = self._device_counters(device, span.category)
            busy, tasks, flops, nbytes, busy_union = children
            start, end, attrs = span.start, span.end, span.attrs
            busy.inc(end - start)
            tasks.inc(1)
            if attrs["flops"]:
                flops.inc(attrs["flops"])
            if attrs["nbytes"]:
                nbytes.inc(attrs["nbytes"])
            union = unions.get(device)
            if union is None:
                union = unions[device] = IntervalUnion()
            gained = union.add(start, end)
            if gained:
                busy_union.inc(gained)

    def _device_counters(self, device: str, kind: str) -> tuple[CounterChild, ...]:
        """The five per-record counter children of ``(device, kind)``:
        busy seconds, tasks, flops, bytes, busy-union seconds."""
        m = self.metrics
        children = self._counter_children[device, kind] = (
            m.counter_child(DEVICE_BUSY_SECONDS, device=device, kind=kind),
            m.counter_child(DEVICE_TASKS, device=device, kind=kind),
            m.counter_child(DEVICE_FLOPS, device=device),
            m.counter_child(DEVICE_BYTES, device=device, kind=kind),
            m.counter_child(DEVICE_BUSY_UNION_SECONDS, device=device),
        )
        return children

    def record_recv(
        self,
        label: str,
        device: str,
        start: float,
        end: float,
        attrs: dict | None = None,
    ) -> None:
        """Append a ``recv``-category wait span on *device*'s track.

        Receive waits go to the span tracer only — they are time spent
        *blocked*, not device occupancy, so they must not feed the busy
        counters or :class:`TaskRecord` views the utilization and
        imbalance reports are built on.
        """
        self.tick(end)
        self.tracer.record(
            label,
            device,
            start,
            end,
            category="recv",
            parent_id=self._block_parent(device, start),
            attrs=attrs,
        )

    def _block_parent(self, device: str, start: float) -> int | None:
        """The open phase span of the rank this device is bound to."""
        rank = self._device_rank.get(device)
        if rank is None:
            return None
        return self._phase_parent(rank, start)

    def _phase_parent(self, rank: int, start: float) -> int | None:
        """The id of *rank*'s open phase span, if it began by *start*."""
        phase = self._open_phase.get(rank)
        if phase is None or not phase.is_open or start < phase.start:
            return None
        return phase.span_id

    def bind_device(self, device: str, rank: int) -> None:
        """Declare that *device*'s activity belongs to *rank*'s node, so
        its block spans nest under that rank's open phase spans."""
        self._device_rank[device] = rank

    # ------------------------------------------------------------------
    @property
    def records(self) -> tuple[TaskRecord, ...]:
        """Every record, in insertion order (views built on each call)."""
        return tuple(map(_record_of, self._record_spans))

    def _spans_where(
        self, device: str | None = None, kind: str | None = None
    ) -> list[Span]:
        """The record spans on *device*, of *kind* (``None`` matches
        any)."""
        out = self._record_spans
        if device is not None:
            out = [s for s in out if s.track == device]
        if kind is not None:
            out = [s for s in out if s.category == kind]
        return out

    @property
    def makespan(self) -> float:
        """Latest end time across all records (0 for an empty trace)."""
        return max((s.end for s in self._record_spans), default=0.0)

    def busy_time(self, device: str) -> float:
        """Union length of the busy intervals of *device*.

        Overlapping records (e.g. two streams on one GPU) are merged so a
        device can never appear more than 100 % utilized.  The union is
        folded in on read, record by record (and exported as the
        ``prs_device_busy_union_seconds_total`` counter).
        """
        self._fold()
        union = self._busy_union.get(device)
        return union.total if union is not None else 0.0

    def utilization(self, device: str) -> float:
        """Busy fraction of *device* over the whole makespan."""
        span = self.makespan
        if span <= 0:
            return 0.0
        return self.busy_time(device) / span

    def devices(self) -> list[str]:
        return list(dict.fromkeys(s.track for s in self._record_spans))

    def total_flops(self, device: str | None = None) -> float:
        return sum(s.attrs["flops"] for s in self._spans_where(device))

    def total_bytes(self, device: str | None = None, kind: str | None = None) -> float:
        return sum(s.attrs["nbytes"] for s in self._spans_where(device, kind))

    def observed_gflops(self, device: str) -> float:
        """Achieved device-level rate: executed flops over busy wall time.

        This is the *measured* counterpart of the roofline-attainable
        ``F_c`` / ``F_g`` of Equations (6)/(7): everything the device did
        (kernels, staging, dispatch) counts toward busy time, so the rate
        reflects what the device actually delivers per busy second.
        Returns 0 when the device was idle.
        """
        busy = self.busy_time(device)
        if busy <= 0.0:
            return 0.0
        return self.total_flops(device) / busy / 1e9

    # ------------------------------------------------------------------
    # Phase spans (job -> iteration -> phase hierarchy per rank)
    # ------------------------------------------------------------------
    def begin_phase(
        self,
        phase: str,
        rank: int,
        iteration: int,
        start: float,
        attrs: dict | None = None,
    ) -> Span:
        """Open a live phase span, creating the enclosing job/iteration
        spans of *rank* as needed.  Pair with :meth:`end_phase`.

        *attrs* merges extra attributes into the phase span (the phase
        chain passes the phase's place in it and the link it waited on);
        ``rank``/``iteration`` are reserved keys and always win.
        """
        self.tick(start)
        track = f"rank{rank}"
        job = self._job_span.get(rank)
        if job is None:
            job = self.tracer.begin(
                "job", track, start, category="job", parent_id=None
            )
            self._job_span[rank] = job
        it_span = self._iter_span.get(rank)
        if it_span is None or it_span.attrs.get("iteration") != iteration:
            if it_span is not None and it_span.is_open:
                self.tracer.end(it_span, start)
            it_span = self.tracer.begin(
                f"iteration {iteration}",
                track,
                start,
                category="iteration",
                parent_id=job.span_id,
                attrs={"iteration": iteration},
            )
            self._iter_span[rank] = it_span
        span_attrs = dict(attrs) if attrs else {}
        span_attrs.update({"rank": rank, "iteration": iteration})
        span = self.tracer.begin(
            phase,
            track,
            start,
            category="phase",
            parent_id=it_span.span_id,
            attrs=span_attrs,
        )
        self._open_phase[rank] = span
        return span

    def end_phase(self, span: Span, end: float) -> None:
        """Close a live phase span and account its duration."""
        self.tick(end)
        self.tracer.end(span, end)
        rank = span.attrs["rank"]
        if self._open_phase.get(rank) is span:
            del self._open_phase[rank]
        self.metrics.counter(PHASE_SECONDS).inc(
            span.duration, phase=span.name, rank=str(rank)
        )

    def next_msg_id(self) -> int:
        """Allocate a trace-unique message id (paired send/recv spans)."""
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        return msg_id

    def annotate_phase(self, rank: int, **attrs) -> None:
        """Merge *attrs* into *rank*'s currently open phase span (no-op
        when no phase is open — e.g. retrospective bracketing)."""
        span = self._open_phase.get(rank)
        if span is not None and span.is_open:
            span.attrs.update(attrs)

    def record_recovery(
        self, label: str, rank: int, start: float, end: float, **attrs
    ) -> None:
        """Append a ``recovery``-category span on *rank*'s track (retry
        rounds, restart gaps), parented under its open phase if any."""
        self.tick(end)
        self.tracer.record(
            label,
            f"rank{rank}",
            start,
            end,
            category="recovery",
            parent_id=self._phase_parent(rank, start),
            attrs=dict(attrs) if attrs else None,
        )

    def record_membership(
        self, label: str, start: float, end: float, **attrs
    ) -> None:
        """Append a ``membership``-category span on the dedicated
        ``membership`` track (one per epoch transition).  Parentless and
        closed, like alert spans, so tree-walking analysis passes ignore
        it while exports get their own membership lane."""
        self.tick(end)
        self.tracer.record(
            label,
            MEMBERSHIP_TRACK,
            start,
            max(end, start),
            category=MEMBERSHIP_CATEGORY,
            parent_id=None,
            attrs=dict(attrs) if attrs else None,
        )

    def close_rank(self, rank: int, end: float) -> None:
        """Close *rank*'s open iteration/job envelope spans at *end*.

        Used when a rank dies mid-job: its track ends at the failure
        instant instead of being stretched to the final makespan by
        :meth:`finalize`.
        """
        self.tick(end)
        phase = self._open_phase.pop(rank, None)
        if phase is not None and phase.is_open:
            self.end_phase(phase, max(end, phase.start))
        it_span = self._iter_span.pop(rank, None)
        if it_span is not None and it_span.is_open:
            self.tracer.end(it_span, max(end, it_span.start))
        job = self._job_span.pop(rank, None)
        if job is not None and job.is_open:
            self.tracer.end(job, max(end, job.start))

    def finalize(self, end_time: float) -> None:
        """Close the open job/iteration envelope spans at *end_time*."""
        self._fold()
        self.tracer.finalize(end_time)
        # The trace outlives the run inside its result; drop the bound
        # counters (a later fold rebinds them lazily).
        self._counter_children.clear()
        self._open_phase.clear()
        self._iter_span.clear()
        self._job_span.clear()

    @property
    def phase_spans(self) -> tuple[Span, ...]:
        """The closed ``phase``-category spans, in recording order; each
        carries its ``rank`` and ``iteration`` attrs (``-1`` = setup)."""
        return tuple(
            s for s in self.tracer.find(category="phase") if s.end is not None
        )

    def phase_breakdown(self, rank: int = 0) -> dict[int, dict[str, float]]:
        """Per-iteration ``{phase: seconds}`` for one rank.

        Iteration ``-1`` holds the one-off setup phase.  Phases appear in
        execution order; a phase spanning zero simulated time still shows
        up with duration 0, so the breakdown's total equals the rank's
        busy wall time (which matches the job makespan up to the final
        convergence-broadcast latency on the other ranks).
        """
        out: dict[int, dict[str, float]] = {}
        for span in self.phase_spans:
            if span.attrs["rank"] != rank:
                continue
            per_iter = out.setdefault(span.attrs["iteration"], {})
            per_iter[span.name] = per_iter.get(span.name, 0.0) + span.duration
        return out

    # ------------------------------------------------------------------
    def gantt(self, width: int = 72) -> str:
        """Render a coarse per-device text timeline (debug aid)."""
        span = self.makespan
        if span <= 0:
            return "(empty trace)"
        glyph = GANTT_GLYPHS

        def glyph_for(kind: str) -> str:
            # Unknown kinds (custom record tags) render as their first
            # alphanumeric character — stable and distinguishable —
            # instead of collapsing every novel kind onto an anonymous
            # "*".
            ch = glyph.get(kind)
            if ch is not None:
                return ch
            for c in kind:
                if c.isalnum():
                    return c.lower()
            return "*"

        lines = []
        for device in self.devices():
            row = [" "] * width
            for s in self._spans_where(device):
                lo = int(s.start / span * (width - 1))
                hi = max(lo + 1, int(s.end / span * (width - 1)) + 1)
                ch = glyph_for(s.category)
                for i in range(lo, min(hi, width)):
                    row[i] = ch
            lines.append(f"{device:>16s} |{''.join(row)}|")
        lines.append(f"{'':>16s}  0{'':{width - 10}}{span:.3e}s")
        return "\n".join(lines)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-device totals: busy seconds, flops, bytes, utilization."""
        out: dict[str, dict[str, float]] = {}
        for device in self.devices():
            out[device] = {
                "busy": self.busy_time(device),
                "flops": self.total_flops(device),
                "bytes": self.total_bytes(device),
                "utilization": self.utilization(device),
            }
        return out
