"""Recovery policy types plus block/device/rank-level recovery behaviour."""

import pytest

from repro.hardware import delta_cluster
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime
from repro.runtime.recovery import (
    FaultPolicy,
    JobAbortedError,
    NodeDeadError,
    RecoveryState,
    RecoverySummary,
)
from tests.helpers import CountdownApp, ModSumApp


class TestFaultPolicy:
    def test_defaults_validate(self):
        FaultPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_block_retries": 0},
            {"backoff_base_s": -1.0},
            {"backoff_factor": 0.0},
            {"blacklist_after": 0},
            {"heartbeat_missed_windows": 0},
            {"heartbeat_interval_s": 0.0},
            {"checkpoint_interval": 0},
            {"max_rank_restarts": -1},
            {"retransmit_timeout_s": 0.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)


class TestRecoveryTypes:
    def test_node_dead_error_names_the_node(self):
        err = NodeDeadError(2, "delta02")
        assert err.node_index == 2
        assert "delta02" in str(err)

    def test_recovery_state_save(self):
        state = RecoveryState(interval=2)
        state.save(3, {"x": 1})
        state.save(5, {"x": 2})
        assert (state.iteration, state.state) == (5, {"x": 2})
        assert state.checkpoints_taken == 2

    def test_summary_clean(self):
        assert RecoverySummary().clean
        assert RecoverySummary(heartbeats=40).clean
        assert not RecoverySummary(faults_injected=1, blocks_retried=2).clean
        assert not RecoverySummary(rank_restarts=1).clean


def _run(app, **config_kwargs):
    cluster = delta_cluster(n_nodes=2)
    return PRSRuntime(cluster, JobConfig(**config_kwargs)).run(app)


class TestBlockRecovery:
    def test_gpu_kill_reroutes_blocks_and_conserves_output(self):
        app = ModSumApp(4000)
        result = _run(app, faults="gpu_kill@0:t=0.022")
        assert result.output == app.expected_output()
        rec = result.recovery
        assert rec is not None and rec.faults_injected == 1
        assert rec.blocks_retried > 0
        assert rec.rank_restarts == 0

    def test_hiccup_fails_inflight_blocks_then_blacklists(self):
        # One CPU hiccup interrupts every in-flight CPU block; the failure
        # count crosses blacklist_after, so the device is benched and the
        # Equation (8) split refit over the survivors.
        app = ModSumApp(4000)
        result = _run(app, faults="cpu_hiccup@0:t=0.021")
        assert result.output == app.expected_output()
        rec = result.recovery
        assert rec.block_failures > 0
        assert rec.blocks_retried >= rec.block_failures
        assert rec.devices_blacklisted == 1
        assert rec.split_refits >= 1

    def test_fault_beyond_makespan_is_clean(self):
        app = ModSumApp(4000)
        result = _run(app, faults="gpu_kill@0:t=999.0")
        assert result.output == app.expected_output()
        assert result.recovery is not None and result.recovery.clean

    def test_zero_fault_job_has_no_recovery_summary(self):
        app = ModSumApp(4000)
        assert _run(app).recovery is None


class TestRankRecovery:
    DEAD_NODE = ["cpu_kill@0:t=0.021", "gpu_kill@0:t=0.021"]

    def test_dead_node_restarts_on_survivors(self):
        app = ModSumApp(4000)
        result = _run(app, faults=self.DEAD_NODE)
        assert result.output == app.expected_output()
        rec = result.recovery
        assert rec.rank_restarts == 1
        assert rec.dead_nodes == (0,)

    def test_rank_recovery_disabled_aborts(self):
        app = ModSumApp(4000)
        with pytest.raises(JobAbortedError, match="rank recovery"):
            _run(
                app,
                faults=self.DEAD_NODE,
                fault_policy=FaultPolicy(rank_recovery=False),
            )

    def test_restart_budget_exhaustion_aborts(self):
        app = ModSumApp(4000)
        with pytest.raises(JobAbortedError):
            _run(
                app,
                faults=self.DEAD_NODE,
                fault_policy=FaultPolicy(max_rank_restarts=0),
            )

    def test_iterative_rank_kill_restarts_from_checkpoint(self):
        app = CountdownApp(400, rounds=6)
        cluster = delta_cluster(n_nodes=3)
        result = PRSRuntime(
            cluster, JobConfig(faults="rank_kill@1:t=0.03")
        ).run(app)
        rec = result.recovery
        assert rec.rank_restarts == 1
        assert rec.dead_nodes == (1,)
        assert rec.checkpoints > 0
        # Checkpoint/restore keeps the loop exact: the counter still hits
        # zero after exactly `rounds` effective updates.
        assert app.remaining <= 0
        assert result.iterations == app.rounds
