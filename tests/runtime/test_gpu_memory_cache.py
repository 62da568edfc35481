"""Tests for GPU-memory-bounded loop-invariant caching."""

import pytest

from repro.hardware import Cluster, FatNode
from repro.hardware.cluster import NetworkSpec
from repro.hardware.device import CpuSpec, GpuSpec
from repro.runtime.api import Block
from repro.runtime.daemons import GpuDaemon, NodeResources
from repro.runtime.job import JobConfig, Overheads
from repro.runtime.shuffle import BlockOrderedSink
from repro.simulate.engine import Engine
from repro.simulate.trace import Trace

from tests.helpers import CountdownApp

QUIET_CONFIG = JobConfig(overheads=Overheads(0.0, 0.0, 0.0, 0.0))


def tiny_gpu_node(memory_bytes: int):
    cpu = CpuSpec(name="cpu", peak_gflops=100.0, dram_bandwidth=25.0, cores=4)
    gpu = GpuSpec(
        name="tinygpu",
        peak_gflops=1000.0,
        dram_bandwidth=100.0,
        pcie_bandwidth=5.0,
        cores=128,
        memory_bytes=memory_bytes,
    )
    return FatNode(name="tiny", cpu=cpu, gpus=(gpu,))


def run_block_twice(node, app, block):
    engine = Engine()
    trace = Trace()
    daemon = GpuDaemon(NodeResources(engine, node), 0, app, QUIET_CONFIG, trace)
    sink = BlockOrderedSink([])
    engine.run(engine.all_of(daemon.map_lanes([block], sink)))
    engine.run(engine.all_of(daemon.map_lanes([block], sink)))
    return daemon, trace


class TestCapacityBoundedCache:
    def test_fitting_input_cached(self):
        node = tiny_gpu_node(memory_bytes=1 << 20)  # 1 MiB
        app = CountdownApp(n=1000)  # 4 KB total
        daemon, trace = run_block_twice(node, app, Block(0, 1000))
        assert daemon.is_cached(Block(0, 1000))
        h2d = [r for r in trace.records if r.kind == "h2d" and r.nbytes > 0]
        assert len(h2d) == 1  # staged exactly once

    def test_oversized_input_never_cached(self):
        node = tiny_gpu_node(memory_bytes=1024)  # 1 KiB device
        app = CountdownApp(n=1000)  # 4 KB block > memory
        daemon, trace = run_block_twice(node, app, Block(0, 1000))
        assert not daemon.is_cached(Block(0, 1000))
        h2d = [r for r in trace.records if r.kind == "h2d" and r.nbytes > 0]
        assert len(h2d) == 2  # re-staged every pass

    def test_cache_fills_then_stops(self):
        # Device fits ~2 of 4 blocks (capacity fraction 0.9 of 2 KiB).
        node = tiny_gpu_node(memory_bytes=2048)
        app = CountdownApp(n=1000)  # blocks of 250 items = 1000 B each
        engine = Engine()
        daemon = GpuDaemon(
            NodeResources(engine, node), 0, app, QUIET_CONFIG, Trace()
        )
        sink = BlockOrderedSink([])
        blocks = Block(0, 1000).split(4)
        for block in blocks:
            engine.run(engine.all_of(daemon.map_lanes([block], sink)))
        cached = [b for b in blocks if daemon.is_cached(b)]
        assert len(cached) == 1  # 1000 B fits in 1843 B budget, 2000 B not
        assert daemon.cached_bytes <= 0.9 * node.gpu.memory_bytes

    def test_end_to_end_oversized_iterative_job(self):
        """A full PRS job whose data exceeds GPU memory still completes,
        paying staging every iteration."""
        from repro.runtime.prs import PRSRuntime

        node = tiny_gpu_node(memory_bytes=1024)
        cluster = Cluster(
            name="tiny", nodes=(node,),
            network=NetworkSpec(latency=1e-6, bandwidth=1.0),
        )
        app = CountdownApp(n=5000, rounds=3)
        result = PRSRuntime(cluster, QUIET_CONFIG).run(app)
        assert result.iterations == 3
        durations = [s.duration for s in result.iteration_log.stats]
        # No caching: all iterations cost roughly the same.
        assert max(durations) < 1.3 * min(durations)
