"""Unit tests for the MapReduce API surface and JobConfig."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.intensity import ConstantIntensity
from repro.runtime.api import Block, MapReduceApp
from repro.runtime.job import JobConfig, JobResult, Overheads, Scheduling
from repro.simulate.trace import Trace

from tests.helpers import CombinerModSumApp, ModSumApp


class TestBlock:
    def test_n_items(self):
        assert Block(3, 10).n_items == 7

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            Block(5, 2)

    def test_rejects_negative(self):
        with pytest.raises((ValueError, TypeError)):
            Block(-1, 2)

    def test_split_covers_exactly(self):
        parts = Block(10, 35).split(4)
        assert parts[0].start == 10 and parts[-1].stop == 35
        assert sum(p.n_items for p in parts) == 25

    def test_split_drops_empties(self):
        parts = Block(0, 2).split(5)
        assert len(parts) == 2
        assert all(p.n_items == 1 for p in parts)

    @settings(max_examples=40, deadline=None)
    @given(start=st.integers(0, 1000), size=st.integers(0, 1000),
           k=st.integers(1, 40))
    def test_split_partition_property(self, start, size, k):
        block = Block(start, start + size)
        parts = block.split(k)
        covered = sorted((p.start, p.stop) for p in parts)
        # Contiguous cover of the original range.
        total = sum(hi - lo for lo, hi in covered)
        assert total == size
        for (l1, h1), (l2, h2) in zip(covered, covered[1:]):
            assert h1 == l2


class TestAppIntrospection:
    def test_has_combiner_detection(self):
        assert not ModSumApp().has_combiner()
        assert CombinerModSumApp().has_combiner()

    def test_gpu_device_map_defaults_to_cpu(self):
        app = ModSumApp(n=100)
        block = Block(0, 10)
        assert app.gpu_device_map(block) == app.cpu_map(block)

    def test_gpu_map_dispatch_without_host_override(self):
        app = ModSumApp(n=100)
        assert not app.has_gpu_host_map()
        assert app.gpu_map(Block(0, 5)) == app.cpu_map(Block(0, 5))

    def test_compare_default_ordering(self):
        app = ModSumApp()
        assert app.compare(1, 2) < 0
        assert app.compare(2, 1) > 0
        assert app.compare(3, 3) == 0

    def test_total_bytes(self):
        app = ModSumApp(n=100)  # 8 bytes/item
        assert app.total_bytes() == 800.0

    def test_map_flops_from_intensity(self):
        app = ModSumApp(n=100, intensity=10.0)
        assert app.map_flops(Block(0, 10)) == pytest.approx(10.0 * 80.0)

    def test_map_flops_empty_block_zero(self):
        app = ModSumApp(n=100)
        assert app.map_flops(Block(5, 5)) == 0.0


class TestJobConfig:
    def test_defaults(self):
        config = JobConfig()
        assert config.scheduling is Scheduling.STATIC
        assert config.partitions_per_node == 2  # paper default
        assert config.use_cpu and config.use_gpu

    def test_devices_label(self):
        assert JobConfig().devices_label() == "GPU+CPU"
        assert JobConfig(use_gpu=False).devices_label() == "CPU"
        assert JobConfig(use_cpu=False).devices_label() == "GPU"

    @pytest.mark.parametrize("field,value", [
        ("gpus_per_node", 0),
        ("partitions_per_node", 0),
        ("dynamic_blocks", 0),
        ("overlap_threshold", 1.5),
        ("force_cpu_fraction", -0.1),
    ])
    def test_validation(self, field, value):
        with pytest.raises((ValueError, TypeError)):
            JobConfig(**{field: value})

    def test_overheads_validation(self):
        with pytest.raises(ValueError):
            Overheads(job_setup_s=-1.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            JobConfig().use_cpu = False


class TestJobResult:
    def make(self, makespan=2.0, flops=4e9):
        return JobResult(
            output={}, makespan=makespan, trace=Trace(), total_flops=flops
        )

    def test_gflops(self):
        assert self.make().gflops == pytest.approx(2.0)

    def test_gflops_zero_makespan(self):
        assert self.make(makespan=0.0).gflops == 0.0

    def test_gflops_per_node(self):
        assert self.make().gflops_per_node(4) == pytest.approx(0.5)

    def test_device_fraction_empty_trace(self):
        assert self.make().device_fraction("cpu") == 0.0

    def test_device_fraction_partition(self):
        trace = Trace()
        trace.record("a", "n.cpu", "compute", 0, 1, flops=30)
        trace.record("b", "n.gpu0", "compute", 0, 1, flops=70)
        result = JobResult(output={}, makespan=1.0, trace=trace)
        assert result.device_fraction(".cpu") == pytest.approx(0.3)
        assert result.device_fraction(".gpu") == pytest.approx(0.7)
