"""Tests for the Table 3 baseline cost models."""

import pytest

from repro.baselines import (
    MahoutBaseline,
    MpiCpuBaseline,
    MpiGpuBaseline,
    WorkloadSpec,
)
from repro.core.intensity import cmeans_intensity, gemv_intensity


def cmeans_workload(n_points, d=100, m=10, iterations=10):
    return WorkloadSpec(
        total_bytes=n_points * d * 4.0,
        intensity=cmeans_intensity(m),
        iterations=iterations,
        state_bytes=m * d * 8.0,
        resident=True,
    )


class TestWorkloadSpec:
    def test_flops(self):
        w = cmeans_workload(1000)
        assert w.flops() == pytest.approx(50.0 * w.total_bytes)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(total_bytes=0.0, intensity=gemv_intensity())


class TestTable3Ordering:
    """The core qualitative claim of Table 3:
    MPI/GPU < MPI/CPU << Mahout, at every size."""

    @pytest.mark.parametrize("n_points", [200_000, 400_000, 800_000])
    def test_runtime_ordering(self, delta4, n_points):
        w = cmeans_workload(n_points)
        t_gpu = MpiGpuBaseline(delta4).run_seconds(w)
        t_cpu = MpiCpuBaseline(delta4).run_seconds(w)
        t_mahout = MahoutBaseline(delta4).run_seconds(w)
        assert t_gpu < t_cpu < t_mahout
        # Mahout is "two orders of magnitude" above the CPU MPI runtime.
        assert t_mahout > 10 * t_cpu

    def test_gpu_cpu_ratio_shape(self, delta4):
        """Paper: MPI/CPU is ~12-14x MPI/GPU for C-means (0.53 vs 6.41)."""
        w = cmeans_workload(400_000)
        ratio = (
            MpiCpuBaseline(delta4).run_seconds(w)
            / MpiGpuBaseline(delta4).run_seconds(w)
        )
        assert 4.0 < ratio < 30.0

    def test_mahout_mostly_fixed_cost(self, delta4):
        """541 s at 200k vs 687 s at 800k: 4x data, < 1.3x time."""
        t_small = MahoutBaseline(delta4).run_seconds(cmeans_workload(200_000))
        t_large = MahoutBaseline(delta4).run_seconds(cmeans_workload(800_000))
        assert t_large / t_small < 1.5

    def test_mpi_runtimes_scale_with_data(self, delta4):
        t_small = MpiGpuBaseline(delta4).run_seconds(cmeans_workload(200_000))
        t_large = MpiGpuBaseline(delta4).run_seconds(cmeans_workload(800_000))
        assert t_large > 3.0 * t_small


class TestModelDetails:
    def test_resident_workload_uses_dram_arm(self, delta4):
        resident = cmeans_workload(400_000)
        staged = WorkloadSpec(
            total_bytes=resident.total_bytes,
            intensity=resident.intensity,
            iterations=resident.iterations,
            state_bytes=resident.state_bytes,
            resident=False,
        )
        model = MpiGpuBaseline(delta4)
        assert model.run_seconds(resident) < model.run_seconds(staged)

    def test_staging_flag_adds_time(self, delta4):
        w = cmeans_workload(400_000)
        base = MpiGpuBaseline(delta4, include_staging=False).run_seconds(w)
        staged = MpiGpuBaseline(delta4, include_staging=True).run_seconds(w)
        assert staged > base

    def test_single_node_has_no_comm(self):
        from repro.hardware import delta_cluster

        one = delta_cluster(n_nodes=1)
        w = cmeans_workload(100_000, iterations=1)
        t = MpiGpuBaseline(one).run_seconds(w)
        node_flops = w.flops()
        gpu = one.nodes[0].gpu
        rate = gpu.attainable_gflops(500.0, staged=False)
        assert t == pytest.approx(node_flops / (rate * 1e9))

    def test_gflops_per_node_bounded_by_peak(self, delta4):
        w = cmeans_workload(800_000)
        for model in (MpiGpuBaseline(delta4), MpiCpuBaseline(delta4)):
            g = model.gflops_per_node(w)
            assert 0 < g <= delta4.nodes[0].peak_gflops

    def test_mahout_efficiency_validated(self, delta4):
        with pytest.raises(ValueError):
            MahoutBaseline(delta4, jvm_efficiency=2.0)
