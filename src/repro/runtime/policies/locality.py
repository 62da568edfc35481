"""Locality-aware work stealing (XKaapi-style affinity, §II.B context).

For iterative apps the GPU daemons cache each block's loop-invariant
input after the first staging (the paper's "copied into CPU and GPU
memories in advance" convention, §IV.A.1 — modelled as a per-daemon
cached-block set).  Plain dynamic polling ignores that: whichever daemon
is idle grabs the queue head, so a block staged into GPU 0's region last
iteration may be re-staged into GPU 1 — or mapped on the CPU — this one.

This policy keeps the shared-queue structure but makes the pop
affinity-aware: a GPU daemon prefers blocks it already holds, and the
CPU pollers prefer blocks *no* GPU holds.  On non-iterative apps nothing
is ever cached and it degenerates to plain dynamic polling.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.runtime.api import Block
from repro.runtime.daemons import CpuDaemon, GpuDaemon
from repro.runtime.policies.base import SchedulingPolicy
from repro.runtime.policies.dynamic import dynamic_block_count, poll_blocks
from repro.runtime.policies.registry import register_policy
from repro.runtime.shuffle import BlockOrderedSink
from repro.simulate.engine import Event


@register_policy
class LocalityDynamicPolicy(SchedulingPolicy):
    """Block polling that steers GPU-cached blocks back to their daemon."""

    name = "locality-dynamic"

    def run_map_partition(
        self, partition: Block, sink: BlockOrderedSink
    ) -> Generator[Event, Any, None]:
        sched = self.sched
        n_blocks = dynamic_block_count(sched, partition)
        self.record_block_plan(partition, n_blocks)
        queue: list[Block] = list(
            partition.split(min(n_blocks, partition.n_items))
        )
        gpu_daemons = sched.gpu_daemons

        def pop(d: CpuDaemon | GpuDaemon) -> Block:
            if isinstance(d, CpuDaemon):
                for i, block in enumerate(queue):
                    if not any(g.is_cached(block) for g in gpu_daemons):
                        return queue.pop(i)
                self.count_steal(d.device_name)
                return queue.pop(0)
            for i, block in enumerate(queue):
                if d.is_cached(block):
                    return queue.pop(i)
            block = queue.pop(0)
            if any(g.is_cached(block) for g in gpu_daemons):
                self.count_steal(d.device_name)
            return block

        yield from poll_blocks(self, queue, sink, pop)

    def effective_cpu_fraction(self) -> float | None:
        return None  # pure polling: no pre-split fraction
