"""The paper's static strategy as a policy (§III.B.2, first bullet).

Split the partition between the CPU and GPU daemons by the analytic
fraction ``p`` of Equation (8), then choose per-device granularities per
§III.B.3b (CPU: ``multiplier x cores`` blocks; GPU: streams when
Equations (9)/(11) say they pay off).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.granularity import (
    DEFAULT_CPU_BLOCK_MULTIPLIER,
    cpu_block_count,
    plan_granularity,
)
from repro.runtime.api import Block
from repro.runtime.partition import weighted_partition
from repro.runtime.policies.base import SchedulingPolicy
from repro.runtime.policies.registry import register_policy
from repro.runtime.shuffle import BlockOrderedSink
from repro.simulate.engine import Event


@register_policy
class StaticPolicy(SchedulingPolicy):
    """Analytic split (Equation 8) + granularity plan (§III.B.3b)."""

    name = "static"

    def _weights(self) -> list[float]:
        """Per-device work fractions over the NOMINAL device set (aligned
        with ``[cpu?] + gpu_daemons``); adaptive subclasses override the
        fraction but must keep the alignment.

        The chop is deliberately fault-invariant: a dead device still gets
        its nominal share of the boundaries, and its blocks are routed
        through the scheduler's recovery path instead.  Re-executing the
        *same* blocks elsewhere keeps the canonicalized pair stream — and
        the job's float reductions — bitwise identical to the fault-free
        run (docs/FAULTS.md).
        """
        return self.sched.device_weights(nominal=True)

    def _audit_granularity(self, daemon, gpu_part: Block, plan) -> None:
        """Audit each GPU daemon's §III.B.3b granularity plan once (the
        plan depends only on the partition geometry, which is nominal and
        therefore constant across iterations)."""
        audited: set[str] = getattr(self, "_granularity_audited", set())
        if daemon.device_name in audited:
            return
        audited.add(daemon.device_name)
        self._granularity_audited = audited
        sched = self.sched
        self.record_decision(
            "granularity-plan",
            sched.current_iteration,
            inputs={
                "device": daemon.device_name,
                "block_bytes": sched.app.block_bytes(gpu_part),
                "overlap_threshold": sched.config.overlap_threshold,
                "cpu_block_multiplier": DEFAULT_CPU_BLOCK_MULTIPLIER,
            },
            outputs={
                "cpu_blocks": plan.cpu_blocks,
                "gpu_blocks": plan.gpu_blocks,
                "use_streams": plan.use_streams,
                "op": plan.overlap,
                "minbs_bytes": plan.min_block_bytes,
            },
        )

    def run_map_partition(
        self, partition: Block, sink: BlockOrderedSink
    ) -> Generator[Event, Any, None]:
        sched = self.sched
        engine = sched.res.engine
        weights = self._weights()
        if not weights:
            # No devices configured at all (cannot happen: the scheduler
            # refuses to construct) — defensive hand-off to recovery.
            sched.note_undispatched(partition)
            return
        ranges = weighted_partition(partition.n_items, weights)
        sub_parts = [
            Block(partition.start + lo, partition.start + hi) for lo, hi in ranges
        ]
        lanes = []
        idx = 0
        cpu_daemon = sched.cpu_daemon
        if cpu_daemon is not None:
            cpu_part = sub_parts[idx]
            idx += 1
            if cpu_part.n_items > 0:
                n_blocks = cpu_block_count(sched.res.node.cpu.cores)
                blocks = cpu_part.split(min(n_blocks, cpu_part.n_items))
                if sched.daemon_active(cpu_daemon):
                    self.count_dispatch(cpu_daemon.device_name, len(blocks))
                    lanes += cpu_daemon.map_lanes(blocks, sink)
                else:
                    for block in blocks:
                        sched.note_undispatched(block)
        for daemon in sched.gpu_daemons:
            gpu_part = sub_parts[idx]
            idx += 1
            if gpu_part.n_items == 0:
                continue
            plan = plan_granularity(
                daemon.gpu,
                sched.res.node.cpu.cores,
                sched.app.gpu_intensity(),
                sched.app.block_bytes(gpu_part),
                overlap_threshold=sched.config.overlap_threshold,
            )
            self._audit_granularity(daemon, gpu_part, plan)
            blocks = gpu_part.split(min(plan.gpu_blocks, gpu_part.n_items))
            if sched.daemon_active(daemon):
                self.count_dispatch(daemon.device_name, len(blocks))
                n_streams = plan.gpu_blocks if plan.use_streams else 1
                lanes += daemon.map_lanes(blocks, sink, n_streams=n_streams)
            else:
                for block in blocks:
                    sched.note_undispatched(block)
        yield engine.all_of(lanes)
