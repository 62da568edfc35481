"""Tests for ingress-NIC contention modelling."""

import numpy as np
import pytest

from repro.comm.mpi import World, run_spmd
from repro.hardware.cluster import NetworkSpec
from repro.simulate.engine import Engine


def make_world(size, contended, bandwidth=1.0, latency=0.0):
    return World(
        Engine(),
        size,
        network=NetworkSpec(latency=latency, bandwidth=bandwidth),
        node_of=lambda r: r,
        contended=contended,
    )


def all_to_root(world, nbytes):
    """Every non-root rank fires one message at rank 0 simultaneously."""
    payload = np.zeros(int(nbytes / 8))

    def main(comm):
        if comm.rank == 0:
            for src in range(1, comm.size):
                yield from comm.recv(source=src)
            return comm.engine.now
        yield from comm.send(payload, dest=0)
        return None

    return run_spmd(world, main)[0]


class TestIngressContention:
    def test_hotspot_serializes_when_contended(self):
        # 7 simultaneous 1 GB messages into rank 0 over a 1 GB/s NIC.
        t = all_to_root(make_world(8, contended=True), 1e9)
        assert t == pytest.approx(7.0, rel=0.01)

    def test_hotspot_overlaps_when_uncontended(self):
        t = all_to_root(make_world(8, contended=False), 1e9)
        assert t == pytest.approx(1.0, rel=0.01)

    def test_distinct_destinations_unaffected(self):
        """Contention is per destination: a pairwise exchange pattern sees
        no ingress queueing."""
        world = make_world(4, contended=True)
        payload = np.zeros(int(1e9 / 8))

        def main(comm):
            partner = comm.rank ^ 1
            if comm.rank < partner:
                yield from comm.send(payload, dest=partner)
                yield from comm.recv(source=partner)
            else:
                yield from comm.recv(source=comm.rank - 1)
                yield from comm.send(payload, dest=comm.rank - 1)
            return comm.engine.now

        results = run_spmd(world, main)
        assert max(results) == pytest.approx(2.0, rel=0.01)

    def test_collectives_still_correct(self):
        import operator

        world = make_world(6, contended=True)

        def main(comm):
            total = yield from comm.allreduce(comm.rank, operator.add)
            gathered = yield from comm.gather(comm.rank * 2)
            return total, gathered

        results = run_spmd(world, main)
        assert all(r[0] == 15 for r in results)
        assert results[0][1] == [0, 2, 4, 6, 8, 10]

    def test_same_node_bypasses_nic(self):
        world = World(
            Engine(), 2,
            network=NetworkSpec(latency=1.0, bandwidth=1e-9),
            node_of=lambda r: 0,  # co-located
            contended=True,
        )

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(1000), dest=1)
            else:
                yield from comm.recv(source=0)
            return comm.engine.now

        assert max(run_spmd(world, main)) == 0.0


class TestPrsWithContention:
    def test_results_identical(self, delta4):
        from repro.runtime.job import JobConfig
        from repro.runtime.prs import PRSRuntime
        from tests.helpers import ModSumApp

        r_free = PRSRuntime(
            delta4, JobConfig(contended_network=False)
        ).run(ModSumApp(n=2000, n_keys=5))
        r_nic = PRSRuntime(
            delta4, JobConfig(contended_network=True)
        ).run(ModSumApp(n=2000, n_keys=5))
        assert r_free.output == r_nic.output

    def test_contention_never_faster(self, delta8):
        """With ingress-NIC contention modelled, the messages C-means'
        eight ranks exchange every iteration queue at the receiving NICs:
        the job gets measurably slower (1.118x here)."""
        from repro.apps.cmeans import CMeansApp
        from repro.data.synth import gaussian_mixture
        from repro.runtime.job import JobConfig, Overheads
        from repro.runtime.prs import PRSRuntime

        points, _, _ = gaussian_mixture(20_000, 16, 5, seed=1)
        quiet = Overheads(0.0, 0.0, 0.0, 0.0)

        def run(contended):
            app = CMeansApp(points, n_clusters=5, max_iterations=3)
            config = JobConfig(
                contended_network=contended, overheads=quiet
            )
            return PRSRuntime(delta8, config).run(app).makespan

        free, contended = run(False), run(True)
        assert contended > free * 1.05
