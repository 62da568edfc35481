"""Graph-partition policy: min-cut the block path graph across devices.

Wu et al. (arXiv:1502.07451) schedule heterogeneous clusters by
partitioning an explicit task graph so that the bytes crossing device
boundaries are minimal subject to load balance.  The PRS analogue
operates on the partition's block graph: the map blocks form a path
(consecutive index ranges share boundary data and cache lines), each
node weighted by its item count and each edge annotated with the bytes
adjacent blocks share (the smaller block's input volume — the
:func:`repro.runtime.partition.blocks_nbytes` sizing model).

The policy cuts that graph with :func:`contiguous_min_cut`: boundaries
start at the Equation (8) weighted positions — the balance optimum —
then slide to the cheapest nearby edge.  On a path graph a contiguous
cut *is* the minimum cut under that balance constraint, so no general
k-way partitioner is needed.  The assignment is computed once per partition
geometry and **kept stable across iterations**: every device sees the
same contiguous block range every pass, so the GPUs stage their share
over PCI-E exactly once and cross-device traffic stays at the cut — in
contrast to dynamic polling, where cache effects shift the poll
interleaving between iterations and blocks migrate (each migration of a
GPU block is a full re-stage).

Each cut is audited via ``record_decision("graph-partition-cut")`` with
the graph size and edge volume as inputs and the cut bytes plus
per-device ranges as outputs.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

from repro.runtime.api import Block
from repro.runtime.policies.base import SchedulingPolicy
from repro.runtime.policies.dynamic import dynamic_block_count
from repro.runtime.policies.registry import register_policy
from repro.runtime.shuffle import BlockOrderedSink
from repro.simulate.engine import Event


def contiguous_min_cut(
    weights: Sequence[float],
    edge_bytes: Sequence[float],
    shares: Sequence[float],
    slack: int = 1,
) -> tuple[list[tuple[int, int]], float]:
    """Cut a weighted path graph into ``len(shares)`` contiguous ranges.

    *weights* are per-node work weights, *edge_bytes* the ``n-1`` edge
    sizes between consecutive nodes, *shares* the target work fraction
    per part (the Equation (8) device weights).  Boundaries start at the
    largest-remainder weighted positions — the load-balance optimum —
    then each may slide up to *slack* nodes to land on a cheaper edge,
    which is the exact min-cut on a path graph subject to that balance
    tolerance.  Returns ``(ranges, cut_bytes)`` with half-open node
    ranges per part.
    """
    n = len(weights)
    if len(edge_bytes) != max(n - 1, 0):
        raise ValueError(
            f"path graph of {n} nodes needs {n - 1} edges, "
            f"got {len(edge_bytes)}"
        )
    if not shares:
        raise ValueError("need at least one share")
    total_w = sum(weights)
    total_s = sum(shares)
    if total_s <= 0:
        raise ValueError("shares must not all be zero")

    def cost(b: int) -> float:
        """Bytes cut by a boundary between node ``b-1`` and node ``b``
        (graph ends are free)."""
        return edge_bytes[b - 1] if 0 < b < n else 0.0

    # Ideal boundaries by cumulative weight (the load-balance optimum).
    nominal: list[int] = []
    target = 0.0
    acc = 0.0
    idx = 0
    for share in shares[:-1]:
        target += share / total_s * total_w
        while idx < n and acc + weights[idx] <= target + 1e-12:
            acc += weights[idx]
            idx += 1
        nominal.append(idx)

    # Each boundary may slide +-slack nodes onto a cheaper edge; ties
    # prefer the nominal position (balance), then the lower index.
    bounds: list[int] = []
    prev = 0
    for j, b in enumerate(nominal):
        upper = nominal[j + 1] if j + 1 < len(nominal) else n
        lo = max(prev, b - slack)
        hi = min(upper, b + slack)
        cands = list(range(lo, hi + 1)) or [max(prev, min(b, upper))]
        best = min(cands, key=lambda c: (cost(c), abs(c - b), c))
        bounds.append(best)
        prev = best

    ranges: list[tuple[int, int]] = []
    prev = 0
    for b in bounds:
        ranges.append((prev, b))
        prev = b
    ranges.append((prev, n))
    cut = sum(cost(b) for b in sorted(set(bounds)))
    return ranges, cut


@register_policy
class GraphPartitionPolicy(SchedulingPolicy):
    """Contiguous min-cut of the block graph, stable across iterations."""

    name = "graph-partition"

    def __init__(self, sched) -> None:
        super().__init__(sched)
        #: partition geometry -> cached per-device block lists (the cut
        #: is re-used verbatim every iteration so blocks never migrate)
        self._cuts: dict[tuple[int, int], list[list[Block]]] = {}

    # ------------------------------------------------------------------
    def _cut(self, partition: Block, blocks: list[Block]) -> list[list[Block]]:
        key = (partition.start, partition.stop)
        cached = self._cuts.get(key)
        if cached is not None:
            return cached
        sched = self.sched
        block_bytes = sched.app.block_bytes
        # The block path graph: nodes weighted by item count, neighbours
        # joined by the bytes they share (the smaller block's input).
        weights = [float(b.n_items) for b in blocks]
        edge_bytes = [
            min(block_bytes(a), block_bytes(b))
            for a, b in zip(blocks, blocks[1:])
        ]
        shares = sched.device_weights(nominal=True)
        ranges, cut_bytes = contiguous_min_cut(weights, edge_bytes, shares)
        assignment = [blocks[lo:hi] for lo, hi in ranges]
        self._cuts[key] = assignment
        engines = sched.nominal_map_engines()
        self.record_decision(
            "graph-partition-cut",
            sched.current_iteration,
            inputs={
                "blocks": len(blocks),
                "graph_edges": len(edge_bytes),
                "total_edge_bytes": sum(edge_bytes),
                "shares": list(shares),
                "partition_items": partition.n_items,
            },
            outputs={
                "cut_bytes": cut_bytes,
                "ranges": {
                    d.device_name: [lo, hi]
                    for d, (lo, hi) in zip(engines, ranges)
                },
            },
        )
        return assignment

    # ------------------------------------------------------------------
    def run_map_partition(
        self, partition: Block, sink: BlockOrderedSink
    ) -> Generator[Event, Any, None]:
        sched = self.sched
        engine = sched.res.engine
        n_blocks = dynamic_block_count(sched, partition)
        self.record_block_plan(partition, n_blocks)
        blocks = partition.split(min(n_blocks, partition.n_items))
        assignment = self._cut(partition, blocks)

        lanes = []
        for daemon, mine in zip(sched.nominal_map_engines(), assignment):
            if not mine:
                continue
            if not sched.daemon_active(daemon):
                # The cut is fault-invariant; a dead device's range goes
                # through block recovery (same boundaries, survivors run
                # them, outputs stay bitwise identical).
                for block in mine:
                    sched.note_undispatched(block)
                continue
            self.count_dispatch(daemon.device_name, len(mine))
            lanes += daemon.map_lanes(mine, sink)
        if lanes:
            yield engine.all_of(lanes)
