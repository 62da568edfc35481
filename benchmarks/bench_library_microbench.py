"""Library micro-benchmarks: real wall-clock throughput of the substrate.

Unlike the table/figure regenerators (which report *simulated* time), these
measure the reproduction's own machinery with pytest-benchmark's repeated
timing: DES event throughput, communicator message rate, region-allocator
ops, the C-means membership kernel, and a full small PRS job.  They guard
against performance regressions in the simulator itself — a simulation
substrate that cannot execute millions of events per second cannot sweep
the parameter spaces the benchmarks above explore.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.cmeans import fuzzy_memberships
from repro.comm.mpi import World, run_spmd
from repro.data.synth import gaussian_mixture
from repro.runtime.memory import RegionAllocator
from repro.simulate.engine import Engine
from repro.simulate.resources import CorePool
from repro.simulate.trace import Trace


@pytest.mark.benchmark(group="micro")
def test_micro_engine_event_throughput(benchmark):
    """Chained timeouts: the DES kernel's hot path."""

    def run():
        engine = Engine()

        def chain():
            for _ in range(20_000):
                yield engine.timeout(1.0)

        engine.run(engine.process(chain()))
        return engine.now

    assert benchmark(run) == 20_000.0


@pytest.mark.benchmark(group="micro")
def test_micro_resource_contention(benchmark):
    """Many short jobs through a contended core pool."""

    def run():
        engine = Engine()
        pool = CorePool(engine, 8)

        def worker():
            for _ in range(50):
                yield from pool.using(1.0)

        procs = [engine.process(worker()) for _ in range(64)]
        engine.run(engine.all_of(procs))
        return engine.now

    assert benchmark(run) == pytest.approx(50 * 8.0)


@pytest.mark.benchmark(group="micro")
def test_micro_comm_message_rate(benchmark):
    """Ping-pong through the simulated communicator."""

    def run():
        world = World(Engine(), 2, trace=Trace())

        def main(comm):
            if comm.rank == 0:
                for i in range(2_000):
                    yield from comm.send(i, dest=1)
                    yield from comm.recv(source=1)
            else:
                for _ in range(2_000):
                    item = yield from comm.recv(source=0)
                    yield from comm.send(item, dest=0)

        run_spmd(world, main)
        return world.messages_sent

    # 2000 ping-pong exchanges = 4000 messages through the mailboxes.
    assert benchmark(run) == 4_000

@pytest.mark.benchmark(group="micro")
def test_micro_region_allocator(benchmark):
    """KV-object allocation churn (the §III.C.2 hot path)."""

    def run():
        allocator = RegionAllocator(1 << 20)
        for _ in range(5):
            for _ in range(10_000):
                allocator.alloc("gpu0", 96)
            allocator.reset_all()
        return allocator.total_stats().object_allocs

    assert benchmark(run) == 50_000


@pytest.mark.benchmark(group="micro")
def test_micro_fuzzy_memberships_kernel(benchmark):
    """The C-means numerical kernel (Equation 13), vectorized NumPy."""
    points, _, centers = gaussian_mixture(20_000, 16, 10, seed=1)
    x = points.astype(np.float64)
    c = centers.astype(np.float64)

    u = benchmark(fuzzy_memberships, x, c)
    np.testing.assert_allclose(u.sum(axis=1), 1.0, rtol=1e-9)


@pytest.mark.benchmark(group="micro")
def test_micro_full_prs_job(benchmark):
    """A complete small PRS job: the end-to-end per-run cost floor."""
    from repro.hardware import delta_cluster
    from repro.runtime.job import JobConfig
    from repro.runtime.prs import PRSRuntime

    import sys, pathlib
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tests"))
    from helpers import ModSumApp

    cluster = delta_cluster(n_nodes=4)

    def run():
        app = ModSumApp(n=2_000, n_keys=4)
        return PRSRuntime(cluster, JobConfig()).run(app)

    result = benchmark(run)
    assert result.output
