"""Structured event log + flight recorder: units, zero-perturbation,
fault/alert dumps, profile schema v3 round-trips, span correlation."""

import json

import pytest

from repro.hardware import delta_cluster
from repro.obs.log import (
    DEFAULT_RING_SIZE,
    DUMP_TAIL,
    LEVELS,
    MAX_DUMPS,
    EventLog,
    FlightDump,
    LogRecord,
    unpaired_errors,
)
from repro.obs.profile import (
    PROFILE_SCHEMA_VERSION,
    loads_profile,
    profile_jsonl,
)
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime
from tests.helpers import CountdownApp, ModSumApp


class TestEventLogUnits:
    def test_level_filtering(self):
        log = EventLog(level="warning")
        log.debug("x", "dropped", t=0.0)
        log.info("x", "dropped", t=0.0)
        log.warning("x", "kept", t=0.0)
        log.error("x", "kept", t=0.0)
        assert [(r.level, r.message) for r in log.records()] == [
            ("warning", "kept"), ("error", "kept"),
        ]
        assert len(log) == 2
        assert log.emitted == 2
        assert not log.wants_debug

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            EventLog(level="verbose")
        log = EventLog()
        with pytest.raises(ValueError, match="unknown log level"):
            log.emit("trace", "x", "m", t=0.0)

    def test_ring_is_bounded_per_rank(self):
        log = EventLog(level="debug", ring_size=4)
        for i in range(10):
            log.info("x", f"m{i}", t=float(i), rank=0)
        log.info("x", "other-rank", t=99.0, rank=1)
        assert log.emitted == 11
        assert len(log) == 5  # 4 retained on rank 0 + 1 on rank 1
        kept = [r.message for r in log.records(rank=0)]
        assert kept == ["m6", "m7", "m8", "m9"]

    def test_records_merge_in_causal_order(self):
        log = EventLog()
        log.info("a", "first", t=5.0, rank=1)
        log.info("b", "second", t=1.0)  # driver ring, later seq
        seqs = [r.seq for r in log.records()]
        assert seqs == sorted(seqs)
        assert [r.message for r in log.records()] == ["first", "second"]

    def test_labels_sorted_and_stringified(self):
        log = EventLog()
        log.info("x", "m", t=0.0, zeta=1, alpha=2.5)
        (rec,) = log.records()
        assert rec.attrs == (("alpha", "2.5"), ("zeta", "1"))
        assert dict(rec.attrs) == {"alpha": "2.5", "zeta": "1"}

    def test_span_inheritance_from_bound_phases(self):
        class FakeSpan:
            span_id = 42
            attrs = {"iteration": 3, "dag_node": "map"}

        log = EventLog()
        log.bind_phases({0: FakeSpan()})
        log.info("x", "inside", t=0.0, rank=0)
        # Explicit span_id and rankless records bypass inheritance.
        log.info("x", "explicit", t=0.0, rank=0, span_id=7)
        log.info("x", "driver", t=0.0)
        rec, explicit, driver = log.records()
        assert rec.span_id == 42
        assert dict(rec.attrs)["iteration"] == "3"
        assert dict(rec.attrs)["dag_node"] == "map"
        assert explicit.span_id == 7
        assert driver.span_id is None

    def test_record_round_trip(self):
        rec = LogRecord(
            seq=3, t=1.5, level="warning", logger="comm", message="m",
            rank=2, span_id=9, attrs=(("k", "v"),),
        )
        assert LogRecord.from_dict(rec.to_dict()) == rec
        assert rec.severity == LEVELS["warning"]

    def test_dump_tail_and_cap(self):
        log = EventLog(level="debug", ring_size=DEFAULT_RING_SIZE)
        for i in range(DUMP_TAIL + 20):
            log.info("x", f"m{i}", t=float(i))
        dump = log.dump("fault", "test", 99.0)
        assert len(dump.records) == DUMP_TAIL
        assert dump.records[-1].message == f"m{DUMP_TAIL + 19}"
        assert [r.seq for r in dump.records] == sorted(
            r.seq for r in dump.records
        )
        for _ in range(MAX_DUMPS + 5):
            log.dump("fault", "storm", 100.0)
        assert len(log.dumps) == MAX_DUMPS
        assert log.dump("fault", "over", 101.0) is None

    def test_flight_dump_round_trip(self):
        log = EventLog()
        log.error("x", "boom", t=1.0, rank=0)
        dump = log.dump("fault", "unit", 1.0)
        clone = FlightDump.from_dict(dump.to_dict())
        assert clone == dump


class TestUnpairedErrors:
    def test_pairing_against_recovery_spans(self):
        from repro.obs.spans import SpanTracer

        log = EventLog()
        log.error("sched", "failure", t=1.0)
        tracer = SpanTracer()
        assert len(unpaired_errors(log, tracer)) == 1
        tracer.record("retry", "recovery.n0", 1.0, 2.0, category="recovery")
        assert unpaired_errors(log, tracer) == []
        # An ERROR after every recovery span closed is unpaired again.
        log.error("sched", "late", t=5.0)
        assert [r.message for r in unpaired_errors(log, tracer)] == ["late"]


def _run(app, **config_kwargs):
    cluster = delta_cluster(n_nodes=2)
    return PRSRuntime(cluster, JobConfig(**config_kwargs)).run(app)


class TestZeroPerturbation:
    def test_logging_is_bitwise_invisible_fault_free(self):
        base = _run(ModSumApp(4000), sample_interval=0.005)
        logged = _run(
            ModSumApp(4000), sample_interval=0.005, log_level="debug"
        )
        assert base.makespan == logged.makespan
        assert base.engine_events == logged.engine_events
        assert base.output == logged.output
        assert base.sampler_samples == logged.sampler_samples
        assert base.logs is None
        assert logged.logs is not None and logged.logs.emitted > 0

    def test_logging_is_bitwise_invisible_under_faults(self):
        kwargs = dict(
            sample_interval=0.005, faults="gpu_kill@0:t=0.022", fault_seed=3
        )
        base = _run(ModSumApp(4000), **kwargs)
        logged = _run(ModSumApp(4000), log_level="info", **kwargs)
        assert base.makespan == logged.makespan
        assert base.engine_events == logged.engine_events
        assert base.output == logged.output
        assert logged.recovery.flight_dumps
        assert logged.recovery.flight_dumps[0].trigger == "fault"

    def test_invalid_log_level_rejected(self):
        with pytest.raises(ValueError, match="log_level"):
            JobConfig(log_level="verbose")


class TestFlightRecorderRankKill:
    def test_rank_kill_dump_resolves_against_saved_profile(self):
        cluster = delta_cluster(n_nodes=3)
        result = PRSRuntime(
            cluster,
            JobConfig(
                faults="rank_kill@1:t=0.03",
                sample_interval=0.005,
                log_level="info",
            ),
        ).run(CountdownApp(400, rounds=6))
        log = result.logs
        triggers = {d.trigger for d in log.dumps}
        assert "fault" in triggers
        errors = log.records(min_level="error")
        assert any("rank_kill" in r.message for r in errors)
        # Causal order inside every dump.
        for dump in log.dumps:
            seqs = [r.seq for r in dump.records]
            assert seqs == sorted(seqs)
        # Every ERROR pairs with a recovery/alert span (analyze --check).
        assert unpaired_errors(log, result.trace.tracer) == []
        # Span ids in the saved profile resolve against its own tracer.
        profile = loads_profile(profile_jsonl(result.trace))
        spanned = [
            r for r in profile.log.records() if r.span_id is not None
        ]
        assert spanned
        for rec in spanned:
            assert profile.tracer.get(rec.span_id) is not None
        # The recovery summary carries the same dumps.
        assert len(result.recovery.flight_dumps) == len(log.dumps)


class TestNetSlowAlertDump:
    def test_alert_dump_contains_triggering_comm_warns(self):
        """A net_slow plan fires link-over-utilization; its flight dump
        must hold the per-message comm WARNs, fault-seed deterministic."""
        from repro.apps.gmm import GMMApp
        from repro.data.synth import gaussian_mixture

        def run_once():
            pts, _, _ = gaussian_mixture(1500, 16, 5, seed=1)
            app = GMMApp(pts, 5, seed=1, max_iterations=4)
            cluster = delta_cluster(n_nodes=4)
            return PRSRuntime(
                cluster,
                JobConfig(
                    faults="net_slow@*:factor=3,t0=0,t1=1",
                    fault_seed=7,
                    log_level="info",
                ),
            ).run(app)

        result = run_once()
        rules = {a.rule for a in result.alerts}
        assert "link-over-utilization" in rules
        alert_dumps = [
            d
            for d in result.logs.dumps
            if d.trigger == "alert" and d.cause == "link-over-utilization"
        ]
        assert alert_dumps
        warns = [
            r
            for r in alert_dumps[0].records
            if r.level == "warning"
            and r.logger == "comm"
            and "slow delivery" in r.message
        ]
        assert warns, "alert dump must carry the triggering comm WARNs"
        # Deterministic under the fixed fault seed.
        again = run_once()
        assert [r.to_dict() for d in result.logs.dumps for r in d.records] \
            == [r.to_dict() for d in again.logs.dumps for r in d.records]


class TestProfileSchemaV3:
    def test_version_is_4(self):
        assert PROFILE_SCHEMA_VERSION == 4

    def test_log_lines_round_trip(self):
        result = _run(
            ModSumApp(4000),
            sample_interval=0.005,
            faults="gpu_kill@0:t=0.022",
            log_level="info",
        )
        text = profile_jsonl(result.trace, {"app": "modsum"})
        kinds = set()
        for line in text.splitlines():
            kinds.update(
                json.loads(line).keys() & {"log_meta", "log", "log_dump"}
            )
        assert kinds == {"log_meta", "log", "log_dump"}
        profile = loads_profile(text)
        live = result.logs
        assert profile.log is not None
        assert profile.log.level == live.level
        assert profile.log.emitted == live.emitted
        assert [r.to_dict() for r in profile.log.records()] == [
            r.to_dict() for r in live.records()
        ]
        assert [d.to_dict() for d in profile.log.dumps] == [
            d.to_dict() for d in live.dumps
        ]

    def test_non_logging_profile_has_no_log_lines(self):
        result = _run(ModSumApp(2000), sample_interval=0.005)
        text = profile_jsonl(result.trace, {"app": "modsum"})
        for line in text.splitlines():
            obj = json.loads(line)
            assert "log" not in obj
            assert "log_meta" not in obj
            assert "log_dump" not in obj
        assert loads_profile(text).log is None

    def test_v1_and_v2_profiles_load_unchanged(self):
        result = _run(ModSumApp(2000), sample_interval=0.005)
        text = profile_jsonl(result.trace, {"app": "modsum"})
        for old_version in (1, 2):
            downgraded = text.replace(
                f'"schema_version": {PROFILE_SCHEMA_VERSION}',
                f'"schema_version": {old_version}',
                1,
            )
            profile = loads_profile(downgraded)
            assert profile.log is None
            assert profile.meta["schema_version"] == old_version
            assert len(profile.tracer) == len(result.trace.tracer)

    def test_recovery_summary_round_trips_flight_dumps(self):
        from repro.runtime.recovery import RecoverySummary

        result = _run(
            ModSumApp(4000),
            sample_interval=0.005,
            faults="gpu_kill@0:t=0.022",
            log_level="info",
        )
        summary = result.recovery
        assert summary.flight_dumps
        clone = RecoverySummary.from_dict(summary.to_dict())
        assert clone.flight_dumps == summary.flight_dumps
