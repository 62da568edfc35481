"""Tests for execution-trace aggregation."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    DEVICE_BUSY_SECONDS,
    DEVICE_BUSY_UNION_SECONDS,
    DEVICE_BYTES,
    DEVICE_FLOPS,
    DEVICE_TASKS,
    IntervalUnion,
    MetricSampler,
)
from repro.simulate.trace import GANTT_GLYPHS, TaskRecord, Trace


def make_trace(entries):
    trace = Trace()
    for label, device, kind, start, end in entries:
        trace.record(label, device, kind, start, end)
    return trace


class TestTaskRecord:
    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            TaskRecord("t", "d", "compute", 3.0, 1.0)

    @pytest.mark.parametrize("start, end", [
        (0.0, float("nan")), (float("nan"), 1.0), (float("nan"), float("nan")),
    ])
    def test_rejects_nan_bounds(self, start, end):
        with pytest.raises(ValueError, match="'blk'"):
            TaskRecord("blk", "d", "compute", start, end)

    def test_nan_record_leaves_trace_and_counters_untouched(self):
        # `nan < start` is False, so a plain `end < start` check used to
        # accept the record and turn makespan and the busy counters NaN.
        t = make_trace([("a", "cpu", "compute", 0.0, 2.0)])
        before = t.metrics.render()
        with pytest.raises(ValueError, match="'bad'"):
            t.record("bad", "cpu", "compute", 1.0, float("nan"))
        assert t.makespan == 2.0
        assert t.busy_time("cpu") == 2.0
        assert t.metrics.render() == before
        assert len(t.records) == 1


class TestBusyTime:
    def test_disjoint_intervals_sum(self):
        t = make_trace([("a", "gpu", "compute", 0, 1), ("b", "gpu", "compute", 2, 3)])
        assert t.busy_time("gpu") == pytest.approx(2.0)

    def test_overlapping_intervals_merge(self):
        t = make_trace([("a", "gpu", "compute", 0, 2), ("b", "gpu", "h2d", 1, 3)])
        assert t.busy_time("gpu") == pytest.approx(3.0)

    def test_nested_intervals_merge(self):
        t = make_trace([("a", "gpu", "compute", 0, 10), ("b", "gpu", "h2d", 2, 3)])
        assert t.busy_time("gpu") == pytest.approx(10.0)

    def test_utilization_bounded(self):
        t = make_trace([
            ("a", "gpu", "compute", 0, 5),
            ("b", "gpu", "h2d", 0, 5),
            ("c", "cpu", "compute", 0, 1),
        ])
        assert t.utilization("gpu") == pytest.approx(1.0)
        assert t.utilization("cpu") == pytest.approx(0.2)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(0, 100), st.floats(0.01, 10)), min_size=1, max_size=20,
    ))
    def test_union_never_exceeds_sum_or_span(self, raw):
        trace = Trace()
        for i, (start, dur) in enumerate(raw):
            trace.record(f"t{i}", "dev", "compute", start, start + dur)
        busy = trace.busy_time("dev")
        assert busy <= sum(d for _, d in raw) + 1e-9
        assert busy <= trace.makespan + 1e-9
        assert trace.utilization("dev") <= 1.0 + 1e-12


class TestQueries:
    def test_makespan_empty(self):
        assert Trace().makespan == 0.0

    def test_totals(self):
        t = Trace()
        t.record("a", "gpu", "compute", 0, 1, nbytes=10, flops=100)
        t.record("b", "cpu", "compute", 0, 1, nbytes=20, flops=50)
        assert t.total_flops() == 150
        assert t.total_flops("gpu") == 100
        assert t.total_bytes("cpu") == 20

    def test_devices_in_first_seen_order(self):
        t = make_trace([
            ("a", "gpu0", "compute", 0, 1),
            ("b", "cpu", "compute", 0, 1),
            ("c", "gpu0", "compute", 1, 2),
        ])
        assert t.devices() == ["gpu0", "cpu"]

    def test_summary_keys(self):
        t = make_trace([("a", "gpu", "compute", 0, 1)])
        summary = t.summary()
        assert set(summary["gpu"]) == {"busy", "flops", "bytes", "utilization"}

    def test_gantt_renders(self):
        t = make_trace([("a", "gpu", "compute", 0, 1), ("b", "cpu", "h2d", 0, 0.5)])
        art = t.gantt(width=40)
        assert "gpu" in art and "cpu" in art

    def test_gantt_empty(self):
        assert "empty" in Trace().gantt()

    def test_gantt_covers_all_known_kinds(self):
        # shuffle/reduce/overhead used to render as blanks (glyph map only
        # covered compute/h2d/d2h/net)
        t = make_trace([
            ("a", "dev", "shuffle", 0.0, 0.2),
            ("b", "dev", "reduce", 0.2, 0.4),
            ("c", "dev", "overhead", 0.4, 0.6),
            ("d", "dev", "net", 0.6, 0.8),
            ("e", "dev", "recv", 0.8, 1.0),
        ])
        row = t.gantt(width=50).splitlines()[0]
        for ch in ("x", "+", ".", "~", "?"):
            assert ch in row

    def test_gantt_unknown_kind_gets_own_glyph(self):
        # DAG-introduced kinds render with their first letter, not a
        # silent "*" (that fallback is reserved for unnameable kinds).
        t = make_trace([("a", "dev", "mystery-kind", 0.0, 1.0)])
        out = t.gantt(width=30)
        assert "m" in out
        assert "*" not in out

    def test_gantt_unnameable_kind_falls_back_to_star(self):
        t = make_trace([("a", "dev", "###", 0.0, 1.0)])
        assert "*" in t.gantt(width=30)


def record_phase(trace, phase, rank, iteration, start, end):
    """One finished phase span, bracketed as the runtime does."""
    trace.end_phase(trace.begin_phase(phase, rank, iteration, start), end)


class TestPhaseSpans:
    def _trace(self):
        t = Trace()
        record_phase(t, "setup", 0, -1, 0.0, 0.5)
        record_phase(t, "map", 0, 0, 0.5, 2.0)
        record_phase(t, "reduce", 0, 0, 2.0, 2.5)
        record_phase(t, "map", 1, 0, 0.5, 1.5)
        record_phase(t, "map", 0, 1, 2.5, 3.5)
        return t

    def test_phase_spans_appended_in_order(self):
        t = self._trace()
        assert [
            (s.name, s.attrs["rank"], s.attrs["iteration"])
            for s in t.phase_spans
        ] == [
            ("setup", 0, -1), ("map", 0, 0), ("reduce", 0, 0), ("map", 1, 0),
            ("map", 0, 1),
        ]

    def test_phase_breakdown_groups_per_iteration(self):
        t = self._trace()
        breakdown = t.phase_breakdown(rank=0)
        assert breakdown[-1] == {"setup": 0.5}
        assert breakdown[0] == {"map": 1.5, "reduce": 0.5}
        assert breakdown[1] == {"map": 1.0}

    def test_phase_breakdown_accumulates_repeated_phase(self):
        t = Trace()
        record_phase(t, "map", 0, 0, 0.0, 1.0)
        record_phase(t, "map", 0, 0, 1.0, 1.25)
        assert t.phase_breakdown()[0] == {"map": 1.25}

    def test_nan_phase_rejected(self):
        t = Trace()
        with pytest.raises(ValueError, match="'map'"):
            record_phase(t, "map", 0, 0, 0.0, float("nan"))

    def test_reversed_span_rejected(self):
        t = Trace()
        with pytest.raises(ValueError):
            record_phase(t, "map", 0, 0, 2.0, 1.0)


class TestObservedRates:
    def test_observed_gflops_is_flops_over_busy(self):
        t = Trace()
        t.record("k", "n.gpu0", "compute", 0.0, 2.0, flops=4e9)
        assert t.observed_gflops("n.gpu0") == pytest.approx(2.0)

    def test_idle_device_observes_zero(self):
        t = Trace()
        assert t.observed_gflops("n.cpu") == 0.0

    def test_overhead_counts_toward_busy_not_flops(self):
        t = Trace()
        t.record("k", "n.cpu", "compute", 0.0, 1.0, flops=1e9)
        t.record("d", "n.cpu", "overhead", 1.0, 2.0)
        assert t.observed_gflops("n.cpu") == pytest.approx(0.5)


class _ReferenceTrace(Trace):
    """A trace that also keeps a TaskRecord list, the pre-span store."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ref = []

    def record(self, label, device, kind, start, end, nbytes=0.0, flops=0.0,
               attrs=None):
        self.ref.append(TaskRecord(label, device, kind, start, end, nbytes, flops))
        super().record(label, device, kind, start, end, nbytes, flops, attrs)


def _ref_filter(recs, device=None, kind=None):
    return [
        r for r in recs
        if (device is None or r.device == device)
        and (kind is None or r.kind == kind)
    ]


def _ref_busy_time(recs, device):
    total, cur_start, cur_end = 0.0, None, 0.0
    for start, end in sorted(
        (r.start, r.end) for r in _ref_filter(recs, device)
    ):
        if cur_start is None:
            cur_start, cur_end = start, end
        elif start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def _ref_glyph(kind):
    ch = GANTT_GLYPHS.get(kind)
    if ch is not None:
        return ch
    return next((c.lower() for c in kind if c.isalnum()), "*")


def _ref_gantt(recs, width):
    span = max(r.end for r in recs)
    lines = []
    for device in dict.fromkeys(r.device for r in recs):
        row = [" "] * width
        for r in _ref_filter(recs, device):
            lo = int(r.start / span * (width - 1))
            hi = max(lo + 1, int(r.end / span * (width - 1)) + 1)
            for i in range(lo, min(hi, width)):
                row[i] = _ref_glyph(r.kind)
        lines.append(f"{device:>16s} |{''.join(row)}|")
    lines.append(f"{'':>16s}  0{'':{width - 10}}{span:.3e}s")
    return "\n".join(lines)



class TestSingleStore:
    """A record is stored once, as its span; every record query must read
    exactly what a TaskRecord list of the same run reads."""

    @pytest.fixture(scope="class")
    def trace(self):
        import repro.runtime.prs as prs
        from repro.apps.cmeans import CMeansApp
        from repro.data.synth import gaussian_mixture
        from repro.hardware import delta_cluster
        from repro.runtime.job import JobConfig

        mp = pytest.MonkeyPatch()
        mp.setattr(prs, "Trace", _ReferenceTrace)
        try:
            pts, _, _ = gaussian_mixture(600, 8, 3, seed=11)
            app = CMeansApp(pts, 3, seed=11, max_iterations=4)
            config = JobConfig(initial_nodes=2, faults=[
                "join@2:t=0.005", "join@3:t=0.005", "gpu_kill@0:t=0.01",
                "msg_drop@1-0:count=2,t0=0", "rank_kill@2:t=0.05",
            ])
            result = prs.PRSRuntime(delta_cluster(n_nodes=4), config).run(app)
        finally:
            mp.undo()
        assert result.recovery is not None and result.recovery.rank_restarts
        return result.trace

    def test_records_and_devices(self, trace):
        ref = trace.ref
        assert len(ref) > 100
        assert trace.records == tuple(ref)
        assert trace.devices() == list(dict.fromkeys(r.device for r in ref))
        assert trace.makespan == max(r.end for r in ref)

    def test_totals_and_busy_time(self, trace):
        ref = trace.ref
        assert repr(trace.total_flops()) == repr(sum(r.flops for r in ref))
        assert repr(trace.total_bytes()) == repr(sum(r.nbytes for r in ref))
        for device in trace.devices():
            recs = _ref_filter(ref, device)
            assert repr(trace.total_flops(device)) == repr(
                sum(r.flops for r in recs))
            assert repr(trace.total_bytes(device, "net")) == repr(
                sum(r.nbytes for r in _ref_filter(ref, device, "net")))
            assert repr(trace.busy_time(device)) == repr(
                _ref_busy_time(ref, device))

    def test_exports(self, trace):
        ref = trace.ref
        assert trace.gantt(width=60) == _ref_gantt(ref, 60)
        rebuilt = Trace()
        for r in ref:
            rebuilt.add(r)
        assert rebuilt.records == trace.records
        assert rebuilt.summary() == trace.summary()

    def test_records_are_views_not_cached(self, trace):
        assert trace.records is not trace.records
        assert trace.records[0] == trace.records[0]


class _PerRecordTrace(Trace):
    """The reference a fold must reproduce: each record counts its five
    series and its busy union at once, through ``Counter.inc``, and
    stores its span where :meth:`Trace._fold` never looks."""

    def __init__(self):
        super().__init__()
        self.unions = {}

    def record(self, label, device, kind, start, end, nbytes=0.0, flops=0.0,
               attrs=None):
        self.tick(end)
        m = self.metrics
        m.counter(DEVICE_BUSY_SECONDS).inc(end - start, device=device, kind=kind)
        m.counter(DEVICE_TASKS).inc(1, device=device, kind=kind)
        if flops:
            m.counter(DEVICE_FLOPS).inc(flops, device=device)
        if nbytes:
            m.counter(DEVICE_BYTES).inc(nbytes, device=device, kind=kind)
        added = self.unions.setdefault(device, IntervalUnion()).add(start, end)
        if added:
            m.counter(DEVICE_BUSY_UNION_SECONDS).inc(added, device=device)
        self.tracer.record(label, device, start, end, category=kind,
                           parent_id=None)

    def busy_time(self, device):
        union = self.unions.get(device)
        return union.total if union is not None else 0.0


DEVICES = ("n0.cpu", "n0.gpu0", "n1.cpu", "net.r0")
KINDS = ("compute", "h2d", "reduce", "net")


def _stream(seed, n=300):
    """A seeded record stream: overlapping and zero-length intervals,
    zero and nonzero flops and bytes, several devices and kinds, ends
    roughly in time order (as the runtime records them)."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        start = i * 1e-4 + rng.uniform(-3e-4, 3e-4)
        start = max(0.0, start)
        length = rng.choice([0.0, rng.uniform(1e-5, 5e-4)])
        flops = rng.choice([0.0, 0.0, rng.uniform(1.0, 1e6)])
        nbytes = rng.choice([0.0, float(rng.randint(1, 4096))])
        out.append((f"t{i}", rng.choice(DEVICES), rng.choice(KINDS),
                    start, start + length, nbytes, flops))
    return out


def _read(trace, device):
    """One read of every kind the fold serves."""
    trace.metrics.render()
    trace.metrics.to_dict()
    trace.busy_time(device)
    trace.metrics.get(DEVICE_FLOPS)


def _replay(cls, stream, reads=()):
    """Record *stream* into a sampled trace of *cls*, reading at the
    indices in *reads*; finalize, then add one record after it."""
    trace = cls()
    sampler = trace.attach_sampler(MetricSampler(interval=2e-4))
    for i, rec in enumerate(stream):
        if i in reads:
            _read(trace, rec[1])
        trace.record(*rec)
    end = max(r[4] for r in stream)
    sampler.finalize(end)
    trace.finalize(end)
    trace.record("late", "n0.cpu", "compute", end, end + 1e-3, 8.0, 10.0)
    return trace


def _outputs(trace):
    metrics = trace.metrics
    return (
        metrics.render(),
        list(metrics.to_dict().items()),  # sample key order included
        [repr(trace.busy_time(d)) for d in DEVICES],
        trace.sampler.bank.to_jsonl_lines(),
    )


class TestFoldOnRead:
    """The record counters and busy unions are folded in on read; every
    read order gives what counting at each record gives."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_any_read_order_matches_per_record_counting(self, seed):
        stream = _stream(seed)
        rng = random.Random(seed + 100)
        reads = set(rng.sample(range(len(stream)), 40))
        interleaved = _outputs(_replay(Trace, stream, reads))
        at_end = _outputs(_replay(Trace, stream))
        reference = _outputs(_replay(_PerRecordTrace, stream))
        assert interleaved == at_end == reference
        assert "prs_device_flops_total" in reference[0]

    def test_record_writes_no_counter(self):
        t = Trace()
        t.record("a", "n0.cpu", "compute", 0.0, 1.0, 8.0, 10.0)
        assert t.metrics._metrics == {}
        assert t.metrics.get(DEVICE_TASKS).value(device="n0.cpu",
                                                 kind="compute") == 1.0
        assert t.busy_time("n0.cpu") == 1.0

    @pytest.mark.parametrize("field, value", [
        ("flops", -1.0), ("flops", math.nan), ("nbytes", -8.0),
        ("nbytes", math.nan),
    ])
    def test_bad_flops_or_bytes_fail_at_the_call(self, field, value):
        t = make_trace([("a", "cpu", "compute", 0.0, 1.0)])
        before = t.metrics.render()
        with pytest.raises(ValueError, match="'blk'"):
            t.record("blk", "cpu", "compute", 1.0, 2.0, **{field: value})
        assert len(t.records) == 1
        assert t.metrics.render() == before

    def test_attrs_may_not_shadow_the_record_fields(self):
        t = Trace()
        with pytest.raises(ValueError, match="'blk'"):
            t.record("blk", "cpu", "compute", 0.0, 1.0, attrs={"flops": 1.0})
        assert t.records == ()
