"""Tests for dual DMA copy engines (duplex PCI-E transfers)."""

import pytest

from repro.hardware.device import GpuSpec
from repro.simulate.engine import Engine
from repro.simulate.streams import GpuStreamEngine, StreamBlock, simulate_stream_batch


def make_gpu(copy_engines):
    return GpuSpec(
        name="g",
        peak_gflops=1e6,  # compute ~free: isolate the transfer engines
        dram_bandwidth=1e5,
        pcie_bandwidth=1.0,
        cores=64,
        copy_engines=copy_engines,
    )


class TestCopyEngines:
    def test_single_engine_serializes_directions(self):
        gpu = make_gpu(1)
        # 1 GB in and 1 GB out per block, compute negligible.
        blocks = [StreamBlock(1e9, 1.0, out_bytes=1e9)] * 2
        t = simulate_stream_batch(gpu, blocks, n_streams=2)
        # All four transfers share one engine: ~4 s.
        assert t == pytest.approx(4.0, rel=0.02)

    def test_dual_engines_overlap_directions(self):
        gpu = make_gpu(2)
        blocks = [StreamBlock(1e9, 1.0, out_bytes=1e9)] * 2
        t = simulate_stream_batch(gpu, blocks, n_streams=2)
        # h2d pair on one engine, d2h pair on the other, pipelined:
        # strictly faster than the serialized 4 s.
        assert t < 4.0 * 0.80

    def test_dual_engines_no_gain_for_oneway_traffic(self):
        one = make_gpu(1)
        two = make_gpu(2)
        blocks = [StreamBlock(1e9, 1.0)] * 3  # inbound only
        t1 = simulate_stream_batch(one, blocks, n_streams=3)
        t2 = simulate_stream_batch(two, blocks, n_streams=3)
        assert t1 == pytest.approx(t2, rel=1e-9)

    def test_tesla_presets_have_two_engines(self, delta, bigred2):
        assert delta.gpu.copy_engines == 2
        assert bigred2.gpu.copy_engines == 2

    def test_engine_links_shared_when_single(self):
        engine = Engine()
        se = GpuStreamEngine(engine, make_gpu(1))
        assert se.d2h is se.h2d

    def test_engine_links_distinct_when_dual(self):
        engine = Engine()
        se = GpuStreamEngine(engine, make_gpu(2))
        assert se.d2h is not se.h2d

    def test_validation(self):
        with pytest.raises((ValueError, TypeError)):
            make_gpu(0)
