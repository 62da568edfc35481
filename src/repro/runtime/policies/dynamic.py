"""The paper's dynamic strategy as a policy (§III.B.2, second bullet).

The partition is chopped into blocks that idle device daemons poll from a
shared queue.  The paper notes "it is non-trivial work to find out the
appropriate block sizes"; when ``config.dynamic_blocks`` is unset the
block count is derived from the granularity model itself —
:func:`dynamic_block_count` targets load balance (the §III.B.3b CPU rule
plus one in-flight block per GPU work queue) but never splits below the
``MinBs`` saturation size of Equation (11).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.core.granularity import cpu_block_count, min_block_size
from repro.runtime.api import Block
from repro.runtime.daemons import CpuDaemon, GpuDaemon
from repro.runtime.policies.base import SchedulingPolicy
from repro.runtime.policies.registry import register_policy
from repro.runtime.shuffle import BlockOrderedSink
from repro.simulate.engine import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.scheduler import SubTaskScheduler


def dynamic_block_count(sched: "SubTaskScheduler", partition: Block) -> int:
    """Blocks to chop *partition* into for the polling policies.

    An explicit ``config.dynamic_blocks`` wins.  Otherwise the count
    targets load balance — ``multiplier x cores`` CPU blocks (§III.B.3b)
    plus ``work_queues + 1`` in-flight blocks per GPU — capped so no block
    falls below ``MinBs`` of Equation (11) (an unsaturable device imposes
    no cap; Equation (11) then has no solution).

    Always derived from the NOMINAL device set, even when some devices
    are dead: block boundaries must be fault-invariant so a faulted run's
    reduce input stays bitwise identical to the fault-free run.
    """
    config = sched.config
    if config.dynamic_blocks is not None:
        return config.dynamic_blocks

    target = 0
    if sched.cpu_daemon is not None:
        target += cpu_block_count(sched.res.node.cpu.cores)
    for daemon in sched.gpu_daemons:
        target += daemon.gpu.work_queues + 1
    target = max(target, 1)

    if sched.gpu_daemons:
        part_bytes = sched.app.block_bytes(partition)
        profile = sched.app.gpu_intensity()
        cap: int | None = None
        for daemon in sched.gpu_daemons:
            try:
                minbs = min_block_size(daemon.gpu, profile)
            except ValueError:
                continue  # peak unreachable at any size: no MinBs constraint
            if minbs > 0:
                device_cap = max(1, int(part_bytes // minbs))
                cap = device_cap if cap is None else min(cap, device_cap)
        if cap is not None:
            target = min(target, cap)
    return max(target, 1)


def poll_blocks(
    policy: SchedulingPolicy,
    queue: deque[Block] | list[Block],
    sink: BlockOrderedSink,
    pop: Callable[[CpuDaemon | GpuDaemon], Block],
) -> Generator[Event, Any, None]:
    """Process fragment: drain *queue* through polling lanes, one per
    core of the active CPU daemon and one per active GPU daemon.

    A lane's "next block or ``None``" is ``pop(daemon)`` while the queue
    holds work and the lane's daemon is active.  Blocks left when every
    lane has stopped (their devices died mid-drain) go to recovery.
    """
    sched = policy.sched

    def poll(daemon: CpuDaemon | GpuDaemon) -> Callable[[], Block | None]:
        def take() -> Block | None:
            if not queue or not sched.daemon_active(daemon):
                return None
            policy.note_queue_depth(len(queue))
            block = pop(daemon)
            policy.count_dispatch(daemon.device_name)
            return block

        return take

    lanes = []
    cpu_daemon = sched.active_cpu_daemon
    if cpu_daemon is not None:
        # One lane per core: the pool stays saturated while work remains.
        cores = sched.res.node.cpu.cores
        lanes += cpu_daemon.lanes(cores, poll(cpu_daemon), sink, batch=False)
    for gpu_daemon in sched.active_gpu_daemons:
        lanes += gpu_daemon.lanes(1, poll(gpu_daemon), sink, batch=False)
    yield sched.res.engine.all_of(lanes)
    policy.note_queue_depth(len(queue))  # drained (or abandoned) queue
    for block in queue:
        sched.note_undispatched(block)
    queue.clear()


@register_policy
class DynamicPolicy(SchedulingPolicy):
    """Fixed blocks polled from a shared queue by idle device daemons."""

    name = "dynamic"

    def run_map_partition(
        self, partition: Block, sink: BlockOrderedSink
    ) -> Generator[Event, Any, None]:
        sched = self.sched
        n_blocks = dynamic_block_count(sched, partition)
        self.record_block_plan(partition, n_blocks)
        queue: deque[Block] = deque(
            partition.split(min(n_blocks, partition.n_items))
        )

        yield from poll_blocks(
            self, queue, sink, lambda _daemon: queue.popleft()
        )

    def effective_cpu_fraction(self) -> float | None:
        return None  # pure polling: no pre-split fraction
