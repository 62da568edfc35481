"""System-level properties: determinism and exactly-once processing.

Two invariants every distributed runtime must honour:

* **Determinism** — the DES kernel breaks same-instant ties FIFO and the
  apps are seeded, so two identical runs must agree bit-for-bit in both
  timing and output.
* **Conservation** — every input item is mapped exactly once, no matter
  how the two-level scheduler slices the input across nodes, devices and
  blocks (static or dynamic).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.intensity import ConstantIntensity
from repro.hardware import delta_cluster
from repro.runtime.api import Block, MapReduceApp
from repro.runtime.job import JobConfig, Scheduling
from repro.runtime.prs import PRSRuntime


class ItemAuditApp(MapReduceApp):
    """Emits each item id once; the reduce output is an exact audit."""

    name = "audit"

    def __init__(self, n: int):
        self._n = n
        self._intensity = ConstantIntensity(25.0, label="audit")

    def n_items(self) -> int:
        return self._n

    def item_bytes(self) -> float:
        return 16.0

    def intensity(self):
        return self._intensity

    def cpu_map(self, block: Block):
        return [(i % 7, i) for i in range(block.start, block.stop)]

    def cpu_reduce(self, key, values):
        return sorted(values)


class TestConservation:
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(1, 800),
        nodes=st.integers(1, 5),
        scheduling=st.sampled_from([Scheduling.STATIC, Scheduling.DYNAMIC]),
        partitions=st.integers(1, 4),
        dynamic_blocks=st.integers(1, 50),
    )
    def test_every_item_mapped_exactly_once(
        self, n, nodes, scheduling, partitions, dynamic_blocks
    ):
        app = ItemAuditApp(n)
        config = JobConfig(
            scheduling=scheduling,
            partitions_per_node=partitions,
            dynamic_blocks=dynamic_blocks,
        )
        result = PRSRuntime(delta_cluster(n_nodes=nodes), config).run(app)
        seen = sorted(i for values in result.output.values() for i in values)
        assert seen == list(range(n))

    @pytest.mark.parametrize("use_cpu,use_gpu", [(True, False), (False, True)])
    def test_single_device_classes_conserve(self, use_cpu, use_gpu):
        app = ItemAuditApp(500)
        config = JobConfig(use_cpu=use_cpu, use_gpu=use_gpu)
        result = PRSRuntime(delta_cluster(n_nodes=3), config).run(app)
        seen = sorted(i for values in result.output.values() for i in values)
        assert seen == list(range(500))


class TestDeterminism:
    def run_once(self, scheduling):
        from repro.apps.cmeans import CMeansApp
        from repro.data.synth import gaussian_mixture

        pts, _, _ = gaussian_mixture(2000, 6, 3, seed=5)
        app = CMeansApp(pts, 3, seed=6, max_iterations=3, epsilon=1e-12)
        result = PRSRuntime(
            delta_cluster(n_nodes=4), JobConfig(scheduling=scheduling)
        ).run(app)
        return result, app

    @pytest.mark.parametrize(
        "scheduling", [Scheduling.STATIC, Scheduling.DYNAMIC]
    )
    def test_bitwise_repeatability(self, scheduling):
        r1, a1 = self.run_once(scheduling)
        r2, a2 = self.run_once(scheduling)
        assert r1.makespan == r2.makespan  # exact, not approx
        assert len(r1.trace.records) == len(r2.trace.records)
        np.testing.assert_array_equal(a1.centers, a2.centers)
        assert r1.network_bytes == r2.network_bytes

    def test_trace_records_identical(self):
        r1, _ = self.run_once(Scheduling.STATIC)
        r2, _ = self.run_once(Scheduling.STATIC)
        for rec1, rec2 in zip(r1.trace.records, r2.trace.records):
            assert rec1 == rec2


class TestFaultedDeterminism:
    """Fault injection preserves the determinism contract: the same
    FaultPlan + seed yields bit-identical timings and recovery counters
    (the deeper numerical-identity checks live in
    tests/integration/test_fault_tolerance.py)."""

    def run_once(self):
        from repro.apps.cmeans import CMeansApp
        from repro.data.synth import gaussian_mixture

        pts, _, _ = gaussian_mixture(2000, 6, 3, seed=5)
        app = CMeansApp(pts, 3, seed=6, max_iterations=3, epsilon=1e-12)
        config = JobConfig(
            faults=["gpu_kill@0:t=0.025~0.04", "rank_kill@3:t=0.03~0.05"],
            fault_seed=11,
        )
        return PRSRuntime(delta_cluster(n_nodes=4), config).run(app), app

    def test_same_fault_seed_bit_identical(self):
        r1, a1 = self.run_once()
        r2, a2 = self.run_once()
        assert r1.makespan == r2.makespan  # exact, not approx
        assert r1.recovery == r2.recovery
        assert r1.recovery is not None and not r1.recovery.clean
        assert r1.network_bytes == r2.network_bytes
        np.testing.assert_array_equal(a1.centers, a2.centers)
        for rec1, rec2 in zip(r1.trace.records, r2.trace.records):
            assert rec1 == rec2
