"""Fault-plan parsing, seeded sampling, and the live fault state."""

import math

import numpy as np
import pytest

from repro.runtime.recovery import FaultPolicy
from repro.simulate.engine import Engine
from repro.simulate.faults import (
    FaultPlan,
    FaultSpecError,
    FaultState,
    parse_fault_spec,
)
from repro.simulate.trace import Trace
from tests.helpers import degraded_makespan_bound


def _rng():
    return np.random.default_rng(0)


class TestSpecParsing:
    def test_gpu_kill_defaults_to_gpu0(self):
        ev = parse_fault_spec("gpu_kill@2:t=0.5", _rng())
        assert (ev.kind, ev.node, ev.gpu, ev.time) == ("gpu_kill", 2, 0, 0.5)
        assert ev.device_key() == "n2.gpu0"

    def test_gpu_kill_explicit_gpu_index(self):
        ev = parse_fault_spec("gpu_kill@1.1:t=0.25", _rng())
        assert (ev.node, ev.gpu) == (1, 1)
        assert ev.device_key() == "n1.gpu1"

    def test_cpu_kill_and_rank_kill(self):
        cpu = parse_fault_spec("cpu_kill@3:t=1e-3", _rng())
        assert cpu.device_key() == "n3.cpu"
        rank = parse_fault_spec("rank_kill@0:at=0.1", _rng())
        assert (rank.kind, rank.node, rank.time) == ("rank_kill", 0, 0.1)

    def test_straggler_window(self):
        ev = parse_fault_spec(
            "straggler@1.cpu:factor=3,t0=0.1,t1=0.4", _rng()
        )
        assert (ev.node, ev.device) == (1, "cpu")
        assert (ev.time, ev.until, ev.factor) == (0.1, 0.4, 3.0)
        assert ev.device_key() == "n1.cpu"

    def test_net_slow_star_target(self):
        ev = parse_fault_spec("net_slow@*:factor=4,t0=0,t1=0.02", _rng())
        assert (ev.kind, ev.factor, ev.until) == ("net_slow", 4.0, 0.02)

    def test_msg_delay_src_dest(self):
        ev = parse_fault_spec("msg_delay@0-2:delay=1e-3", _rng())
        assert (ev.src, ev.dest, ev.delay) == (0, 2, 1e-3)

    def test_msg_drop_wildcard_src(self):
        ev = parse_fault_spec("msg_drop@*-1:count=2,t0=0", _rng())
        assert (ev.src, ev.dest, ev.count) == (None, 1, 2)

    def test_default_time_is_zero_until_inf(self):
        ev = parse_fault_spec("gpu_kill@0", _rng())
        assert ev.time == 0.0
        assert ev.until == math.inf

    def test_dict_spec(self):
        ev = parse_fault_spec(
            {"kind": "gpu_kill", "node": 1, "gpu": 0, "time": 0.3}, _rng()
        )
        assert (ev.kind, ev.node, ev.time) == ("gpu_kill", 1, 0.3)

    @pytest.mark.parametrize(
        "bad",
        [
            "quantum_flip@0:t=1",  # unknown kind
            "gpu_kill@0:t",  # malformed parameter
            "gpu_kill@0:warp=9",  # unknown parameter
            "straggler@1:factor=2",  # straggler needs NODE.cpu/NODE.gpuK
            "straggler@1.tpu:factor=2",  # unknown straggler device
            "msg_delay@3:delay=1",  # message faults need SRC-DEST
            "net_slow@2:factor=2",  # net_slow targets the whole network
            "gpu_kill@0:t=0.5~0.1",  # empty range
            "straggler@0.cpu:factor=0,t0=0,t1=1",  # factor must be > 0
            "net_slow@*:factor=2,t0=0.5,t1=0.1",  # window ends before start
            {"kind": "straggler", "device": "gpu0"},  # straggler needs a node
            {"kind": "pcie_slow", "factor": 2.0},  # pcie_slow needs a node
        ],
    )
    def test_rejected_specs(self, bad):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(bad, _rng())

    def test_dict_spec_unknown_kind(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec({"kind": "nope"}, _rng())

    def test_join_and_drain_membership_specs(self):
        join = parse_fault_spec("join@2:t=0.04", _rng())
        assert (join.kind, join.node, join.time) == ("join", 2, 0.04)
        drain = parse_fault_spec("drain@5:at=0.1", _rng())
        assert (drain.kind, drain.node, drain.time) == ("drain", 5, 0.1)

    def test_membership_specs_need_a_node(self):
        with pytest.raises(
            FaultSpecError, match="node target must be an integer"
        ):
            parse_fault_spec("join@*:t=0.04", _rng())

    def test_errors_quote_spec_and_position(self):
        # the position points at the offending token, not the spec start
        spec = "gpu_kill@0:t=0.1,warp=9"
        with pytest.raises(FaultSpecError) as exc:
            parse_fault_spec(spec, _rng())
        message = str(exc.value)
        assert repr(spec) in message
        assert f"at position {spec.index('warp')}" in message

    def test_unknown_kind_error_points_at_spec_start(self):
        spec = "  quantum_flip@0:t=1"
        with pytest.raises(FaultSpecError) as exc:
            parse_fault_spec(spec, _rng())
        message = str(exc.value)
        assert repr(spec) in message
        assert f"at position {spec.index('quantum')}" in message

    def test_dict_spec_errors_omit_position(self):
        with pytest.raises(FaultSpecError) as exc:
            parse_fault_spec({"kind": "gpu_kill", "warp": 9}, _rng())
        message = str(exc.value)
        assert "position" not in message and "warp" in message


class TestFaultPlan:
    def test_ranged_sampling_is_seed_deterministic(self):
        specs = ["gpu_kill@0:t=0.1~0.5", "cpu_kill@1:t=0.2~0.9"]
        p1 = FaultPlan.from_specs(specs, seed=7)
        p2 = FaultPlan.from_specs(specs, seed=7)
        assert p1 == p2
        for ev in p1.events:
            assert 0.1 <= ev.time <= 0.9

    def test_different_seed_different_sample(self):
        spec = ["gpu_kill@0:t=0.0~1.0"]
        times = {FaultPlan.from_specs(spec, seed=s).events[0].time
                 for s in range(8)}
        assert len(times) > 1

    def test_coerce_forms(self):
        assert not FaultPlan.coerce(None)
        plan = FaultPlan.from_specs(["gpu_kill@0:t=0.1"])
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce("gpu_kill@0:t=0.1").events == plan.events
        assert FaultPlan.coerce(["gpu_kill@0:t=0.1"]).events == plan.events
        assert bool(plan)

    def test_membership_events_split_from_fault_events(self):
        plan = FaultPlan.from_specs(
            ["join@2:t=0.04", "gpu_kill@0:t=0.03", "drain@2:t=0.1"]
        )
        assert [e.kind for e in plan.membership_events()] == ["join", "drain"]


def _state(specs, seed=0):
    plan = FaultPlan.from_specs(specs, seed=seed)
    return FaultState(Engine(), plan, Trace(), FaultPolicy())


class TestFaultStateWindows:
    def test_compute_scale_inside_and_outside_window(self):
        st = _state(["straggler@1.cpu:factor=3,t0=0.1,t1=0.4"])
        assert st.compute_scale("n1.cpu", 0.2) == 3.0
        assert st.compute_scale("n1.cpu", 0.5) == 1.0
        assert st.compute_scale("n0.cpu", 0.2) == 1.0

    def test_net_scale_window(self):
        st = _state(["net_slow@*:factor=4,t0=0.0,t1=0.02"])
        assert st.net_scale(0.01) == 4.0
        assert st.net_scale(0.03) == 1.0

    def test_pcie_scale_is_per_node(self):
        st = _state(["pcie_slow@2:factor=2,t0=0,t1=1"])
        assert st.pcie_scale(2, 0.5) == 2.0
        assert st.pcie_scale(1, 0.5) == 1.0

    def test_msg_delay_matches_src_dest(self):
        st = _state(["msg_delay@0-2:delay=5e-3,t0=0,t1=1"])
        assert st.msg_delay(0, 2, 0.5) == 5e-3
        assert st.msg_delay(2, 0, 0.5) == 0.0

    def test_consume_drop_budget(self):
        st = _state(["msg_drop@0-1:count=2,t0=0"])
        assert st.consume_drop(0, 1, 0.1)
        assert st.consume_drop(0, 1, 0.2)
        assert not st.consume_drop(0, 1, 0.3)  # budget exhausted
        assert not st.consume_drop(1, 0, 0.1)  # wrong direction

    def test_kill_marks_device_dead_at_fire_time(self):
        st = _state(["gpu_kill@0:t=0.25"])
        st.start()
        assert not st.device_dead("n0.gpu0")
        st.engine.run()
        assert st.device_dead("n0.gpu0")
        assert st.engine.now == 0.25

    def test_rank_kill_marks_registered_devices(self):
        st = _state(["rank_kill@1:t=0.1"])
        st.register_devices(1, ["n1.cpu", "n1.gpu0"])
        st.start()
        st.engine.run()
        assert st.dead_nodes == {1}
        assert st.device_dead("n1.cpu") and st.device_dead("n1.gpu0")


#: every kind, with overlapping windows and two drop events on 0->1
_MIXED_PLAN = (
    "join@2:t=0.005",
    "straggler@1.cpu:factor=3,t0=0.1,t1=0.4",
    "msg_drop@0-1:count=2,t0=0.1,t1=0.6",
    "net_slow@*:factor=2,t0=0,t1=0.3",
    "gpu_kill@0:t=0.01",
    "msg_delay@0-2:delay=5e-3,t0=0,t1=1",
    "straggler@1.cpu:factor=0.5,t0=0.2,t1=0.9",
    "cpu_hiccup@1:t=0.2",
    "pcie_slow@2:factor=2,t0=0,t1=1",
    "msg_drop@0-1:count=1,t0=0.1",
    "net_slow@*:factor=1.5,t0=0.25,t1=0.7",
    "cpu_kill@2:t=0.3",
    "gpu_hiccup@1.0:t=0.15",
    "msg_delay@*-1:delay=1e-3~2e-3,t0=0.2,t1=0.5",
    "straggler@0.gpu0:factor=4,t0=0.05,t1=0.5",
    "rank_kill@2:t=0.5",
    "msg_drop@*-1:count=1,t0=0.3",
    "pcie_slow@2:factor=3,t0=0.4,t1=0.8",
    "drain@1:t=0.7",
)


class ScanOracle:
    """The window queries as full scans over ``plan.events``."""

    def __init__(self, plan):
        self.events = plan.events
        self.drops_left = {
            i: e.count for i, e in enumerate(plan.events)
            if e.kind == "msg_drop"
        }

    def _active(self, kind, now):
        return [
            (i, e) for i, e in enumerate(self.events)
            if e.kind == kind and e.time <= now < e.until
        ]

    def compute_scale(self, key, now):
        scale = 1.0
        for _, e in self._active("straggler", now):
            if e.device_key() == key:
                scale *= max(e.factor, 1.0)
        return scale

    def net_scale(self, now):
        scale = 1.0
        for _, e in self._active("net_slow", now):
            scale *= max(e.factor, 1.0)
        return scale

    def pcie_scale(self, node, now):
        scale = 1.0
        for _, e in self._active("pcie_slow", now):
            if e.node == node:
                scale *= max(e.factor, 1.0)
        return scale

    @staticmethod
    def _on_link(e, src, dest):
        return e.src in (None, src) and e.dest in (None, dest)

    def msg_delay(self, src, dest, now):
        total = 0.0
        for _, e in self._active("msg_delay", now):
            if self._on_link(e, src, dest):
                total += max(e.delay, 0.0)
        return total

    def consume_drop(self, src, dest, now):
        for i, e in self._active("msg_drop", now):
            if self._on_link(e, src, dest) and self.drops_left[i] > 0:
                self.drops_left[i] -= 1
                return True
        return False


class TestKindIndex:
    GRID = sorted({round(0.05 * k, 2) for k in range(21)} | {
        0.005, 0.01, 0.15, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
        0.29999, 0.59999, 1.5,
    })
    NODES = range(3)
    DEVICES = ("n0.cpu", "n1.cpu", "n0.gpu0", "n1.gpu0", "n2.cpu")

    def test_plan_mixes_every_kind(self):
        from repro.simulate.faults import KNOWN_KINDS

        plan = FaultPlan.from_specs(_MIXED_PLAN, seed=3)
        assert {e.kind for e in plan.events} == KNOWN_KINDS

    def test_window_queries_equal_a_full_scan(self):
        st = _state(_MIXED_PLAN, seed=3)
        oracle = ScanOracle(st.plan)
        for now in self.GRID:
            for key in self.DEVICES:
                assert st.compute_scale(key, now) == oracle.compute_scale(
                    key, now
                )
            assert st.net_scale(now) == oracle.net_scale(now)
            for node in self.NODES:
                assert st.pcie_scale(node, now) == oracle.pcie_scale(node, now)
            for src in self.NODES:
                for dest in self.NODES:
                    assert st.msg_delay(src, dest, now) == oracle.msg_delay(
                        src, dest, now
                    )

    def test_drop_budgets_spent_in_plan_order(self):
        st = _state(_MIXED_PLAN, seed=3)
        oracle = ScanOracle(st.plan)
        got, want = [], []
        for now in self.GRID:
            for src in self.NODES:
                for dest in self.NODES:
                    got.append(st.consume_drop(src, dest, now))
                    want.append(oracle.consume_drop(src, dest, now))
                    assert st._drops_left == oracle.drops_left
        assert got == want
        assert sum(got) == 4  # every budget used up

    def test_queries_read_only_their_own_kind(self):
        class Watched:
            """An event that logs the kind of every event read."""

            def __init__(self, event, log):
                self._event, self._log = event, log

            def __getattr__(self, name):
                self._log.append(self._event.kind)
                return getattr(self._event, name)

        log = []
        plan = FaultPlan.from_specs(_MIXED_PLAN, seed=3)
        watched = FaultPlan(tuple(Watched(e, log) for e in plan.events))
        st = FaultState(Engine(), watched, Trace(), FaultPolicy())
        queries = [
            ("straggler", lambda now: st.compute_scale("n1.cpu", now)),
            ("net_slow", st.net_scale),
            ("pcie_slow", lambda now: st.pcie_scale(2, now)),
            ("msg_delay", lambda now: st.msg_delay(0, 2, now)),
            ("msg_drop", lambda now: st.consume_drop(0, 1, now)),
        ]
        for kind, query in queries:
            log.clear()
            for now in self.GRID:
                query(now)
            assert log and set(log) == {kind}


class TestDegradedMakespanBound:
    def test_no_loss_is_identity(self):
        assert degraded_makespan_bound(1.0, 0.5, 0.0) == 1.0

    def test_half_capacity_doubles_remaining_work(self):
        assert degraded_makespan_bound(1.0, 0.4, 0.5) == pytest.approx(1.6)

    def test_kill_after_finish_clamps(self):
        assert degraded_makespan_bound(1.0, 5.0, 0.9) == 1.0

    def test_overhead_added(self):
        assert degraded_makespan_bound(1.0, 0.0, 0.5, overhead_s=0.1) == \
            pytest.approx(2.1)

    def test_full_loss_rejected(self):
        with pytest.raises(ValueError):
            degraded_makespan_bound(1.0, 0.1, 1.0)
