"""The pluggable sub-task scheduling policy interface.

The paper hardwires two strategies into the sub-task scheduler
(§III.B.2); heterogeneous runtimes like StarPU and XKaapi showed that the
scheduling policy is better treated as a first-class, swappable
component.  A :class:`SchedulingPolicy` owns exactly the decision the
paper's strategies disagree on — *how a node-level partition is spread
over that node's device daemons* — and optionally observes the end of
each driver iteration to adapt.

One policy instance is created per :class:`SubTaskScheduler` (i.e. per
node per job), so policies may keep per-node state across iterations
(the adaptive-feedback ``p``, locality affinity maps, ...).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, ClassVar, Generator

from repro import obs
from repro.runtime.api import Block
from repro.runtime.shuffle import BlockOrderedSink
from repro.simulate.engine import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.scheduler import SubTaskScheduler


class SchedulingPolicy(abc.ABC):
    """How one node's partition is split across its device daemons."""

    #: registry name; subclasses must override
    name: ClassVar[str] = "?"

    def __init__(self, sched: "SubTaskScheduler") -> None:
        self.sched = sched
        #: device -> bound ``{policy, device}`` children of the
        #: per-block dispatch and steal counters
        self._dispatched: dict[str, obs.CounterChild] = {}
        self._stolen: dict[str, obs.CounterChild] = {}
        #: the bound queue-depth gauge and histogram series, made on
        #: the first :meth:`note_queue_depth`
        self._queue_depth: tuple[obs.GaugeChild, obs.HistogramChild] | None = None

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> "obs.MetricsRegistry":
        """The job's metrics registry (shared through the trace)."""
        return self.sched.trace.metrics

    def count_dispatch(self, device_name: str, n: int = 1) -> None:
        """Account *n* map blocks dispatched to *device_name*."""
        if n:
            child = self._dispatched.get(device_name)
            if child is None:
                child = self._dispatched[device_name] = self.metrics.counter_child(
                    obs.POLICY_BLOCKS, policy=self.name, device=device_name
                )
            child.inc(n)

    def note_queue_depth(self, depth: int) -> None:
        """Publish the polling queue's instantaneous depth: a
        sampler-visible gauge (time-series, alert rules) plus the
        existing distribution histogram, then tick the trace so a
        pending sampling-grid instant sees the fresh value.  Pure
        bookkeeping — never perturbs the simulated schedule."""
        sched = self.sched
        bound = self._queue_depth
        if bound is None:
            metrics = self.metrics
            bound = self._queue_depth = (
                metrics.gauge_child(
                    obs.POLICY_QUEUE_DEPTH_CURRENT,
                    policy=self.name,
                    node=sched.res.node.name,
                ),
                metrics.histogram_child(
                    obs.POLICY_QUEUE_DEPTH,
                    buckets=obs.COUNT_BUCKETS,
                    policy=self.name,
                ),
            )
        bound[0].set(depth)
        bound[1].observe(depth)
        sched.trace.tick(sched.res.engine.now)

    def count_steal(self, device_name: str) -> None:
        """Account one block taken against the policy's affinity."""
        child = self._stolen.get(device_name)
        if child is None:
            child = self._stolen[device_name] = self.metrics.counter_child(
                obs.POLICY_STEALS, policy=self.name, device=device_name
            )
        child.inc(1)
        sched = self.sched
        log = sched.trace.log
        if log.wants_debug:
            log.debug(
                "policy",
                f"{device_name} stole a block against affinity",
                t=sched.res.engine.now,
                rank=sched.trace.rank_of(device_name),
                policy=self.name,
            )

    def record_decision(
        self,
        kind: str,
        iteration: int,
        inputs: dict[str, Any],
        outputs: dict[str, Any],
    ) -> None:
        """Append one policy decision to the trace's audit log (pure
        bookkeeping: never perturbs the simulated schedule)."""
        sched = self.sched
        prof = sched.trace.selfprof
        prof.begin("policy:decision")
        try:
            sched.trace.audit.record(
                kind,
                node=sched.res.node.name,
                time=sched.res.engine.now,
                iteration=iteration,
                inputs=inputs,
                outputs=outputs,
            )
            log = sched.trace.log
            if log.wants_debug:
                log.debug(
                    "policy",
                    f"{kind} decision on {sched.res.node.name}",
                    t=sched.res.engine.now,
                    rank=(
                        sched.node_index if sched.node_index >= 0 else None
                    ),
                    policy=self.name,
                    iteration=iteration,
                    **{f"out_{k}": v for k, v in outputs.items()},
                )
        finally:
            prof.end()

    def record_block_plan(self, partition: Block, n_blocks: int) -> None:
        """Audit the polling block plan once per node (the count is
        derived from the nominal device set, so it never changes between
        partitions or iterations)."""
        if getattr(self, "_block_plan_audited", False):
            return
        self._block_plan_audited = True
        sched = self.sched
        self.record_decision(
            "block-plan",
            sched.current_iteration,
            inputs={
                "partition_items": partition.n_items,
                "partition_bytes": sched.app.block_bytes(partition),
                "configured_blocks": sched.config.dynamic_blocks,
            },
            outputs={"n_blocks": n_blocks},
        )

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def run_map_partition(
        self, partition: Block, sink: BlockOrderedSink
    ) -> Generator[Event, Any, None]:
        """Process fragment: map *partition* on this node's daemons.

        Called once per node-level partition per iteration with a
        non-empty *partition*; the daemons it drives hand each block's
        key/value pairs to *sink* (``record_block``).
        """

    def on_iteration_end(self, iteration: int) -> None:
        """Hook: the driver finished iteration *iteration* on this node.

        Called after reduce outputs are gathered and (for iterative apps)
        the application state is updated, before the convergence
        broadcast.  Policies may inspect the shared trace here and adjust
        their strategy for the next iteration.  Default: no-op.
        """

    def effective_cpu_fraction(self) -> float | None:
        """The CPU fraction currently steering this policy's splits.

        ``None`` for policies that do not pre-split (pure polling).
        """
        decision = self.sched.split_decision
        return None if decision is None else decision.p

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
