"""End-to-end fault tolerance: numerical identity, bounds, determinism.

The load-bearing property (docs/FAULTS.md): block boundaries are computed
from the *nominal* device set and every block's emissions are flushed in
block order, so a job that loses a GPU daemon mid-iteration re-executes
the dead device's blocks elsewhere and still reduces **bitwise** the same
pair stream as the fault-free run — same centroids, same parameters, down
to the last ulp.
"""

import numpy as np
import pytest

from repro.data.synth import gaussian_mixture
from repro.hardware import delta_cluster
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime
from tests.helpers import degraded_makespan_bound

KILL_T = 0.03  # lands mid-iteration for every app below (setup ends ~0.02)


def _points():
    pts, _, _ = gaussian_mixture(2000, 6, 3, seed=5)
    return pts


def _run(app, faults=None, n_nodes=2, **kwargs):
    config = JobConfig(faults=faults, **kwargs)
    return PRSRuntime(delta_cluster(n_nodes=n_nodes), config).run(app)


def _canonical_output(result):
    return sorted(result.output.items(), key=lambda kv: repr(kv[0]))


class TestGpuKillNumericalIdentity:
    def test_cmeans_converges_identically(self):
        from repro.apps.cmeans import CMeansApp

        pts = _points()
        clean_app = CMeansApp(pts, 3, seed=6, max_iterations=4, epsilon=1e-12)
        clean = _run(clean_app)
        faulted_app = CMeansApp(pts, 3, seed=6, max_iterations=4, epsilon=1e-12)
        faulted = _run(faulted_app, faults=f"gpu_kill@0:t={KILL_T}")

        assert faulted.recovery is not None
        assert faulted.recovery.blocks_retried > 0
        assert faulted.iterations == clean.iterations
        np.testing.assert_array_equal(clean_app.centers, faulted_app.centers)
        assert repr(_canonical_output(clean)) == repr(_canonical_output(faulted))

    def test_gmm_converges_identically(self):
        from repro.apps.gmm import GMMApp

        pts = _points()
        clean_app = GMMApp(pts, 3, seed=6, max_iterations=3)
        clean = _run(clean_app)
        faulted_app = GMMApp(pts, 3, seed=6, max_iterations=3)
        faulted = _run(faulted_app, faults=f"gpu_kill@0:t={KILL_T}")

        assert faulted.recovery.blocks_retried > 0
        assert faulted.iterations == clean.iterations
        np.testing.assert_array_equal(clean_app.weights, faulted_app.weights)
        np.testing.assert_array_equal(clean_app.means, faulted_app.means)
        np.testing.assert_array_equal(
            clean_app.covariances, faulted_app.covariances
        )


class TestDegradedMakespan:
    def test_gpu_kill_within_analytic_bound(self):
        from repro.apps.cmeans import CMeansApp

        pts = _points()
        clean = _run(CMeansApp(pts, 3, seed=6, max_iterations=4, epsilon=1e-12))
        faulted = _run(
            CMeansApp(pts, 3, seed=6, max_iterations=4, epsilon=1e-12),
            faults=f"gpu_kill@0:t={KILL_T}",
        )
        # The dead GPU held gpu_fraction of one node out of two.
        split = clean.splits[0]
        lost = split.gpu_fraction / 2
        bound = degraded_makespan_bound(clean.makespan, KILL_T, lost)
        assert clean.makespan < faulted.makespan <= bound


class TestCombinedPlanBound:
    """``degraded_makespan_bound`` composes: a kill's capacity-loss
    inflation plus window degradations folded into ``overhead_s``."""

    NET_F, NET_T0, NET_T1 = 3.0, 0.02, 0.05

    def _apps(self):
        from repro.apps.cmeans import CMeansApp

        pts = _points()
        return (
            CMeansApp(pts, 3, seed=6, max_iterations=4, epsilon=1e-12),
            CMeansApp(pts, 3, seed=6, max_iterations=4, epsilon=1e-12),
        )

    def test_gpu_kill_plus_net_slow_within_composed_bound(self):
        clean_app, faulted_app = self._apps()
        clean = _run(clean_app)
        faulted = _run(
            faulted_app,
            faults=[
                f"gpu_kill@0:t={KILL_T}",
                f"net_slow@*:factor={self.NET_F},t0={self.NET_T0},"
                f"t1={self.NET_T1}",
            ],
        )
        split = clean.splits[0]
        lost = split.gpu_fraction / 2
        # A degraded window [t0, t1] can stall the critical path by at
        # most the work it would have carried: (t1-t0) * (factor-1).
        net_overhead = (self.NET_T1 - self.NET_T0) * (self.NET_F - 1.0)
        bound = degraded_makespan_bound(
            clean.makespan, KILL_T, lost, overhead_s=net_overhead
        )
        assert clean.makespan < faulted.makespan <= bound
        # ... and numerical identity survives the combined plan.
        np.testing.assert_array_equal(clean_app.centers, faulted_app.centers)
        assert repr(_canonical_output(clean)) == repr(
            _canonical_output(faulted)
        )

    def test_gpu_kill_plus_straggler_within_composed_bound(self):
        strag_f, strag_t0, strag_t1 = 2.0, 0.02, 0.06
        clean_app, faulted_app = self._apps()
        clean = _run(clean_app)
        faulted = _run(
            faulted_app,
            faults=[
                f"gpu_kill@0:t={KILL_T}",
                f"straggler@1.cpu:factor={strag_f},t0={strag_t0},"
                f"t1={strag_t1}",
            ],
        )
        split = clean.splits[0]
        lost = split.gpu_fraction / 2
        strag_overhead = (strag_t1 - strag_t0) * (strag_f - 1.0)
        bound = degraded_makespan_bound(
            clean.makespan, KILL_T, lost, overhead_s=strag_overhead
        )
        assert clean.makespan < faulted.makespan <= bound
        np.testing.assert_array_equal(clean_app.centers, faulted_app.centers)


class TestFaultedDeterminism:
    SPECS = [
        "gpu_kill@0:t=0.025~0.04",  # ranged: exercises seeded sampling
        "straggler@1.cpu:factor=1.5~3,t0=0.02,t1=0.05",
    ]

    def _run_once(self):
        from repro.apps.cmeans import CMeansApp

        app = CMeansApp(
            _points(), 3, seed=6, max_iterations=3, epsilon=1e-12
        )
        result = _run(app, faults=self.SPECS, fault_seed=7)
        return result, app

    def test_same_plan_seed_is_bit_identical(self):
        r1, a1 = self._run_once()
        r2, a2 = self._run_once()
        assert r1.makespan == r2.makespan  # exact, not approx
        assert r1.recovery == r2.recovery
        np.testing.assert_array_equal(a1.centers, a2.centers)
        assert len(r1.trace.records) == len(r2.trace.records)
        for rec1, rec2 in zip(r1.trace.records, r2.trace.records):
            assert rec1 == rec2

    def test_different_fault_seed_changes_schedule(self):
        from repro.apps.cmeans import CMeansApp

        makespans = set()
        for seed in (7, 8, 9):
            app = CMeansApp(
                _points(), 3, seed=6, max_iterations=3, epsilon=1e-12
            )
            makespans.add(
                _run(app, faults=self.SPECS, fault_seed=seed).makespan
            )
        assert len(makespans) > 1


class TestZeroFaultPath:
    @pytest.mark.parametrize("scheduling", ["static", "dynamic"])
    def test_no_plan_matches_empty_plan_runs(self, scheduling):
        """An empty fault plan must not perturb the schedule at all."""
        from repro.apps.cmeans import CMeansApp

        pts = _points()
        a1 = CMeansApp(pts, 3, seed=6, max_iterations=3, epsilon=1e-12)
        r1 = _run(a1, scheduling=scheduling)
        a2 = CMeansApp(pts, 3, seed=6, max_iterations=3, epsilon=1e-12)
        r2 = _run(a2, faults=[], scheduling=scheduling)
        assert r1.recovery is None and r2.recovery is None
        assert r1.makespan == r2.makespan
        np.testing.assert_array_equal(a1.centers, a2.centers)
        for rec1, rec2 in zip(r1.trace.records, r2.trace.records):
            assert rec1 == rec2

    @staticmethod
    def _baseline(faults):
        """The cmeans-static baseline workload, plus its golden
        fault-free fingerprint (tests/integration/fingerprints.json)."""
        import json
        from pathlib import Path

        from repro.cli import DEFAULT_WORKLOADS, _run_workload

        spec = next(w for w in DEFAULT_WORKLOADS if w.name == "cmeans-static")
        golden = json.loads(
            Path(__file__).with_name("fingerprints.json").read_text()
        )[f"{spec.name}/fault-free"]
        return _run_workload(spec, faults=faults), golden

    @pytest.mark.parametrize("faults", [None, []], ids=["none", "empty"])
    def test_unarmed_run_wires_no_fault_machinery(self, faults, monkeypatch):
        """No plan and an empty plan arm nothing: no recovery summary,
        no heartbeats, no checkpoints, and the fault-free events and
        spans."""
        from repro import obs
        from repro.runtime.recovery import RecoveryState
        from tests.helpers import output_digest

        saves = []
        monkeypatch.setattr(
            RecoveryState, "save", lambda self, *args: saves.append(args)
        )
        result, golden = self._baseline(faults)
        metrics = result.trace.metrics
        assert result.recovery is None
        assert metrics.counter(obs.COMM_HEARTBEATS).total() == 0
        assert metrics.counter(obs.RECOVERY_CHECKPOINTS).total() == 0
        assert saves == []
        assert result.engine_events == golden["engine_events"]
        assert len(result.trace.tracer) == golden["spans"]
        assert output_digest(result.output) == golden["digest"]
        assert repr(result.makespan) == golden["makespan"]

    def test_armed_but_inert_plan_reports_clean_summary(self):
        """A plan whose only fault fires after the job armed the
        machinery: the summary exists and is clean, the results match the
        unarmed run."""
        from tests.helpers import output_digest

        result, golden = self._baseline(["gpu_kill@0:t=999"])
        rec = result.recovery
        assert rec is not None and rec.clean
        assert rec.faults_injected == 0 and rec.dead_nodes == ()
        assert rec.heartbeats > 0 and rec.checkpoints > 0
        assert output_digest(result.output) == golden["digest"]
        assert repr(result.makespan) == golden["makespan"]


class TestOutOfRangeTargets:
    """Faults aimed at hardware outside the cluster fail before the
    engine runs, naming the offending event (4-node Delta, 1 GPU/node)."""

    @pytest.mark.parametrize(
        "spec, target",
        [
            ("rank_kill@9:t=0.001", "node 9"),
            ("cpu_kill@4:t=0.001", "node 4"),
            ("gpu_kill@1.7:t=0.001", "gpu 7"),
            ("gpu_hiccup@0.1:t=0.001", "gpu 1"),
            ("straggler@1.gpu2:factor=2,t0=0,t1=1", "gpu 2"),
            ("straggler@4.cpu:factor=2,t0=0,t1=1", "node 4"),
            ("pcie_slow@5:factor=2,t0=0,t1=1", "node 5"),
            ("msg_drop@4-0:count=1,t0=0", "src 4"),
            ("msg_delay@0-6:delay=0.001,t0=0,t1=1", "dest 6"),
            ("join@4:t=0.01", "node 4"),
            ("drain@7:t=0.01", "node 7"),
        ],
    )
    def test_rejected_before_the_engine_runs(self, spec, target, monkeypatch):
        from repro.apps.cmeans import CMeansApp
        from repro.simulate.engine import Engine
        from repro.simulate.faults import FaultPlan, FaultSpecError

        def no_run(self, *args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(Engine, "run", no_run)
        app = CMeansApp(_points(), 3, seed=6, max_iterations=2)
        event = FaultPlan.from_specs([spec]).events[0].spec()
        with pytest.raises(FaultSpecError) as info:
            _run(app, faults=[spec], n_nodes=4, initial_nodes=2)
        assert event in str(info.value) and target in str(info.value)

    @pytest.mark.parametrize(
        "spec", ["gpu_kill@3.0:t=0.001", "msg_drop@*-3:count=1,t0=0"]
    )
    def test_in_range_targets_accepted(self, spec):
        from repro.simulate.faults import FaultPlan

        FaultPlan.from_specs([spec]).check_targets([1, 1, 1, 1])

    def test_oversize_initial_nodes_names_the_knob(self):
        from repro.apps.cmeans import CMeansApp
        from repro.runtime.membership import MembershipError

        app = CMeansApp(_points(), 3, seed=6, max_iterations=2)
        with pytest.raises(MembershipError, match=r"initial_nodes=5 .* 4 nodes"):
            _run(app, n_nodes=4, initial_nodes=5)
