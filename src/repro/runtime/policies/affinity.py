"""Affinity policy: place blocks where their input regions already live.

XKaapi's data-flow scheduling (arXiv:1402.6601) attaches an *affinity*
to each task — the processing unit whose memory already holds the task's
operands — and only steals against it when the owner is unavailable.
The PRS analogue: after the first iteration every map block has a *home*
device — the GPU whose loop-invariant cache holds its input
(:meth:`~repro.runtime.daemons.GpuDaemon.is_cached`) or the daemon whose
region last held its intermediates (the allocator's region map,
:meth:`~repro.runtime.memory.RegionAllocator.home_of`) — and this policy
sends each block straight back to that home.

Iteration 0 has no homes yet, so the first pass falls back to the
Equation (8) nominal contiguous split (identical block boundaries to
:class:`~repro.runtime.policies.static.StaticPolicy`, so the placement
is fault-invariant); every later iteration is pure affinity dispatch —
each GPU block is staged over PCI-E exactly once for the whole job.  A
dead home device re-routes its blocks deterministically to the first
surviving engine (counted as steals); the blocks themselves never move
boundaries, keeping faulted outputs bitwise identical.

Every placement round is audited via ``record_decision("affinity-place")``
with the home-hit/cold/stolen counts as inputs and the per-device block
counts as outputs, so ``repro analyze`` can show how much of the
schedule the region map actually decided.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.runtime.api import Block
from repro.runtime.partition import weighted_partition
from repro.runtime.policies.base import SchedulingPolicy
from repro.runtime.policies.dynamic import dynamic_block_count
from repro.runtime.policies.registry import register_policy
from repro.runtime.shuffle import BlockOrderedSink
from repro.simulate.engine import Event


@register_policy
class AffinityPolicy(SchedulingPolicy):
    """Region-map affinity dispatch (XKaapi-style data-flow placement)."""

    name = "affinity"

    def run_map_partition(
        self, partition: Block, sink: BlockOrderedSink
    ) -> Generator[Event, Any, None]:
        sched = self.sched
        engine = sched.res.engine
        n_blocks = dynamic_block_count(sched, partition)
        self.record_block_plan(partition, n_blocks)
        blocks = partition.split(min(n_blocks, partition.n_items))

        engines = sched.nominal_map_engines()
        by_device: dict[str, list[Block]] = {
            d.device_name: [] for d in engines
        }
        home_hits = 0
        cold = 0
        stolen = 0

        # Cold blocks (no home yet — iteration 0, or evicted) fill the
        # nominal weighted contiguous layout, exactly the static chop.
        weights = sched.device_weights(nominal=True)
        ranges = weighted_partition(len(blocks), weights)
        nominal_of: dict[tuple[int, int], str] = {}
        for daemon, (lo, hi) in zip(engines, ranges):
            for block in blocks[lo:hi]:
                nominal_of[(block.start, block.stop)] = daemon.device_name

        active = {d.device_name for d in sched.active_map_engines()}
        fallback = next(
            (d.device_name for d in engines if d.device_name in active), None
        )
        for block in blocks:
            home = sched.block_home(block)
            if home is None or home not in by_device:
                cold += 1
                home = nominal_of[(block.start, block.stop)]
            else:
                home_hits += 1
            if home not in active:
                # Home device dead/blacklisted: deterministic re-route to
                # the first surviving engine; recovery re-runs anything a
                # dying device drops mid-flight.
                if fallback is None:
                    sched.note_undispatched(block)
                    continue
                if home != fallback:
                    stolen += 1
                    self.count_steal(fallback)
                home = fallback
            by_device[home].append(block)

        lanes = []
        for daemon in engines:
            mine = by_device[daemon.device_name]
            if not mine or not sched.daemon_active(daemon):
                for block in mine:
                    sched.note_undispatched(block)
                continue
            self.count_dispatch(daemon.device_name, len(mine))
            lanes += daemon.map_lanes(mine, sink)
        if lanes:
            yield engine.all_of(lanes)

        self.record_decision(
            "affinity-place",
            sched.current_iteration,
            inputs={
                "blocks": len(blocks),
                "home_hits": home_hits,
                "cold": cold,
                "stolen": stolen,
                "partition_items": partition.n_items,
            },
            outputs={
                d.device_name: len(by_device[d.device_name]) for d in engines
            },
        )

    def effective_cpu_fraction(self) -> float | None:
        return None  # placement follows the region map, not a fraction
