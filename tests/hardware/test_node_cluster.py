"""Unit tests for FatNode, NetworkSpec and Cluster."""

import pytest

from repro.hardware import Cluster, FatNode
from repro.hardware.cluster import NetworkSpec
from repro.hardware.presets import tesla_c2070, xeon_x5660_pair


class TestFatNode:
    def test_devices_order_cpu_first(self, delta_two_gpus):
        devs = delta_two_gpus.devices
        assert not devs[0].is_gpu and all(d.is_gpu for d in devs[1:])

    def test_gpu_property_returns_first(self, delta_two_gpus):
        assert delta_two_gpus.gpu == delta_two_gpus.gpus[0]

    def test_gpu_property_raises_without_gpu(self):
        node = FatNode(name="cpuonly", cpu=xeon_x5660_pair())
        with pytest.raises(ValueError, match="no GPU"):
            _ = node.gpu

    def test_cpu_slot_type_checked(self):
        with pytest.raises(ValueError, match="cpu slot"):
            FatNode(name="bad", cpu=tesla_c2070())

    def test_gpu_slot_type_checked(self):
        with pytest.raises(ValueError, match="gpus slot"):
            FatNode(name="bad", cpu=xeon_x5660_pair(),
                    gpus=(xeon_x5660_pair(),))

    def test_peak_aggregates_all_devices(self, delta):
        assert delta.peak_gflops == pytest.approx(
            delta.cpu.peak_gflops + delta.gpu.peak_gflops
        )


class TestNetworkSpec:
    def test_point_to_point_time(self):
        net = NetworkSpec(latency=1e-6, bandwidth=1.0)
        assert net.point_to_point_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_zero_bytes_costs_latency(self):
        net = NetworkSpec(latency=5e-6, bandwidth=1.0)
        assert net.point_to_point_time(0) == pytest.approx(5e-6)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            NetworkSpec().point_to_point_time(-1)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            NetworkSpec(bandwidth=0.0)

    @pytest.mark.parametrize("latency", [-1e-6, float("nan"), float("inf")])
    def test_rejects_bad_latency(self, latency):
        with pytest.raises(ValueError, match="latency"):
            NetworkSpec(latency=latency)


class TestCluster:
    def test_homogeneous_detection(self, delta4):
        assert delta4.is_homogeneous

    def test_heterogeneous_detection(self, delta4):
        from repro.hardware.presets import bigred2_node
        mixed = Cluster(name="mix",
                        nodes=(delta4.nodes[0], bigred2_node()))
        assert not mixed.is_homogeneous

    def test_requires_nodes(self):
        with pytest.raises(ValueError):
            Cluster(name="empty", nodes=())

    def test_node_lookup(self, delta4):
        assert delta4.node(2) is delta4.nodes[2]


class TestPresets:
    def test_delta_matches_table4(self, delta_two_gpus):
        # Table 4: C2070 x2, 448 cores/GPU, 6 GB/GPU; Xeon 12 cores, 192 GB.
        assert delta_two_gpus.n_gpus == 2
        gpu = delta_two_gpus.gpu
        assert gpu.cores == 448
        assert gpu.memory_bytes == 6 * 1024**3
        assert delta_two_gpus.cpu.cores == 12
        assert delta_two_gpus.cpu.memory_bytes == 192 * 1024**3

    def test_bigred2_matches_table4(self, bigred2):
        # Table 4: K20 x1, 2496 cores, 5 GB; Opteron 32 cores, 62 GB.
        assert bigred2.n_gpus == 1
        assert bigred2.gpu.cores == 2496
        assert bigred2.gpu.memory_bytes == 5 * 1024**3
        assert bigred2.cpu.cores == 32

    def test_fermi_vs_kepler_queues(self, delta, bigred2):
        # §III.B.3b: Fermi one hardware work queue, Kepler Hyper-Q many.
        assert delta.gpu.work_queues == 1
        assert bigred2.gpu.work_queues > 1

    def test_cluster_presets_sized(self):
        from repro.hardware import bigred2_cluster, delta_cluster
        assert delta_cluster(4).n_nodes == 4
        assert bigred2_cluster(2).n_nodes == 2

    def test_delta_node_names_unique(self, delta8):
        names = [n.name for n in delta8.nodes]
        assert len(set(names)) == len(names)
