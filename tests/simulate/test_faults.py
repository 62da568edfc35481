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
