"""Integration tests for the PRS runtime on the simulated cluster."""

import pytest

from repro.hardware import Cluster, delta_cluster
from repro.runtime.job import JobConfig, Overheads, Scheduling
from repro.runtime.prs import PRSRuntime

from tests.helpers import CombinerModSumApp, CountdownApp, ModSumApp


def run_modsum(cluster, **config_kwargs):
    app = ModSumApp(n=1000, n_keys=5)
    runtime = PRSRuntime(cluster, JobConfig(**config_kwargs))
    result = runtime.run(app)
    return app, result


class TestCorrectness:
    @pytest.mark.parametrize("scheduling", [Scheduling.STATIC, Scheduling.DYNAMIC])
    def test_output_matches_ground_truth(self, delta4, scheduling):
        app, result = run_modsum(delta4, scheduling=scheduling)
        assert result.output == app.expected_output()

    @pytest.mark.parametrize(
        "use_cpu,use_gpu", [(True, True), (True, False), (False, True)]
    )
    def test_output_independent_of_device_mix(self, delta4, use_cpu, use_gpu):
        app, result = run_modsum(delta4, use_cpu=use_cpu, use_gpu=use_gpu)
        assert result.output == app.expected_output()

    def test_single_node_cluster(self):
        app, result = run_modsum(delta_cluster(n_nodes=1))
        assert result.output == app.expected_output()

    def test_combiner_path_same_answer(self, delta4):
        app = CombinerModSumApp(n=500, n_keys=3)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        assert result.output == app.expected_output()

    def test_more_partitions_than_items(self, delta4):
        app = ModSumApp(n=5, n_keys=2)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        assert result.output == app.expected_output()


class TestIterativeDriver:
    def test_runs_until_convergence(self, delta4):
        app = CountdownApp(n=200, rounds=4)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        assert app.updates == 4
        assert result.iterations == 4

    def test_max_iterations_cap(self, delta4):
        app = CountdownApp(n=200, rounds=999)
        app.max_iterations = 5
        result = PRSRuntime(delta4, JobConfig()).run(app)
        assert result.iterations == 5

    def test_iteration_log_recorded(self, delta4):
        app = CountdownApp(n=200, rounds=3)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        log = result.iteration_log
        assert len(log) == 3
        starts = [s.start for s in log.stats]
        assert starts == sorted(starts)

    def test_first_iteration_pays_staging(self, delta4):
        """Loop-invariant caching: iteration 0 stages over PCI-E, later
        iterations do not (paper §III.C.3 / §IV.B)."""
        app = CountdownApp(n=1_000_000, rounds=4)
        quiet = Overheads(
            job_setup_s=0.0,
            cpu_task_dispatch_s=0.0,
            gpu_task_dispatch_s=0.0,
            iteration_s=0.0,
        )
        result = PRSRuntime(delta4, JobConfig(overheads=quiet)).run(app)
        log = result.iteration_log
        first = log.stats[0].duration
        later = [s.duration for s in log.stats[1:]]
        assert first > max(later) * 1.05
        # h2d traffic happens only once per node
        later_h2d = [
            r for r in result.trace.records
            if r.kind == "h2d" and r.start >= log.stats[1].start
        ]
        assert not any(r.nbytes > 1e5 for r in later_h2d)


class TestSchedulingBehaviour:
    def test_static_split_matches_analytic(self, delta4):
        app, result = run_modsum(delta4)
        assert len(result.splits) == 4
        p = result.splits[0].p
        assert 0.0 < p < 1.0
        # every node made the same decision on a homogeneous cluster
        assert all(s.p == pytest.approx(p) for s in result.splits)

    def test_force_cpu_fraction(self, delta4):
        app, result = run_modsum(delta4, force_cpu_fraction=0.5)
        assert all(s.p == 0.5 for s in result.splits)

    def test_gpu_only_has_no_split(self, delta4):
        app, result = run_modsum(delta4, use_cpu=False)
        assert result.splits == []

    def test_both_devices_do_work_static(self, delta4):
        app, result = run_modsum(delta4)
        assert result.device_fraction(".cpu") > 0.0
        assert result.device_fraction(".gpu") > 0.0

    def test_measured_fraction_tracks_analytic(self, delta4):
        """The executed flop share must be close to Equation (8)'s p."""
        app = ModSumApp(n=20_000, n_keys=4, intensity=50.0)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        p = result.splits[0].p
        measured = result.device_fraction(".cpu")
        # map flops dominate; reduce noise allows a few percent drift
        assert measured == pytest.approx(p, abs=0.05)

    def test_dynamic_balances_work(self, delta4):
        app = ModSumApp(n=20_000, n_keys=4, intensity=50.0)
        result = PRSRuntime(
            delta4, JobConfig(scheduling=Scheduling.DYNAMIC, dynamic_blocks=128)
        ).run(app)
        # Both device classes must end up doing real MAP work (reduce
        # tasks alone must not satisfy this — they always run CPU-side).
        cpu_map_flops = sum(
            r.flops for r in result.trace.records
            if ".cpu" in r.device and r.kind == "compute"
        )
        gpu_map_flops = sum(
            r.flops for r in result.trace.records
            if ".gpu" in r.device and r.kind == "compute"
        )
        total = cpu_map_flops + gpu_map_flops
        assert cpu_map_flops > 0.02 * total
        assert gpu_map_flops > 0.02 * total


class TestTimingSanity:
    def test_makespan_positive_and_reported(self, delta4):
        app, result = run_modsum(delta4)
        assert result.makespan > 0
        assert result.trace.makespan <= result.makespan + 1e-12

    def test_gpu_cpu_beats_gpu_only_for_low_intensity(self, delta4):
        """The GEMV-shaped headline: co-processing wins big at low AI.

        Fixed runtime overheads are zeroed so device time dominates (the
        paper's GEMV experiments likewise measure the compute phase, with
        M x N = 3.5e8 elements per node dwarfing dispatch costs).
        """
        quiet = Overheads(0.0, 0.0, 0.0, 0.0)
        app_both = ModSumApp(n=2_000_000, intensity=2.0)
        app_gpu = ModSumApp(n=2_000_000, intensity=2.0)
        t_both = PRSRuntime(
            delta4, JobConfig(overheads=quiet)
        ).run(app_both).makespan
        t_gpu = PRSRuntime(
            delta4, JobConfig(use_cpu=False, overheads=quiet)
        ).run(app_gpu).makespan
        assert t_both < t_gpu * 0.5

    def test_network_bytes_counted(self, delta4):
        app, result = run_modsum(delta4)
        assert result.network_bytes > 0

    def test_gflops_property(self, delta4):
        app, result = run_modsum(delta4)
        assert result.gflops > 0
        assert result.gflops_per_node(4) == pytest.approx(result.gflops / 4)

    def test_job_setup_charged(self, delta4):
        overheads = Overheads(job_setup_s=1.0)
        app = ModSumApp(n=100)
        result = PRSRuntime(delta4, JobConfig(overheads=overheads)).run(app)
        assert result.makespan > 1.0


class TestValidation:
    def test_requires_some_device(self, delta4):
        with pytest.raises(ValueError):
            JobConfig(use_cpu=False, use_gpu=False)

    def test_gpu_only_on_cpu_only_node_fails(self):
        from repro.hardware import FatNode
        from repro.hardware.presets import xeon_x5660_pair

        cluster = Cluster(
            name="cpuonly", nodes=(FatNode(name="n0", cpu=xeon_x5660_pair()),)
        )
        with pytest.raises(ValueError, match="daemons"):
            PRSRuntime(cluster, JobConfig(use_cpu=False)).run(ModSumApp(100))
