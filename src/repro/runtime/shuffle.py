"""Intermediate key grouping and bucket exchange (map -> reduce).

Paper §III.A.2: "The intermediate data located in GPU memory will be
copied/sorted to/in CPU memory after all map tasks on local node are done.
Then the PRS scheduler shuffles all intermediate key/value pairs across the
cluster so that the pairs with the same key are stored consecutively in a
bucket on the same node."

Functionally this module provides the block-ordered map sink,
deterministic group-by-key, hash partitioning of keys onto nodes, and
the optional combiner pass; the
timing of the exchange itself is paid through :mod:`repro.comm.mpi`
messages by the runtime.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro._validation import require_positive_int
from repro.comm.mpi import payload_nbytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.api import Block

KeyValue = tuple[Any, Any]


def group_by_key(pairs: Iterable[KeyValue]) -> dict[Any, list[Any]]:
    """Group values by key, preserving emission order within a key."""
    groups: dict[Any, list[Any]] = defaultdict(list)
    for key, value in pairs:
        groups[key].append(value)
    return dict(groups)


class BlockOrderedSink:
    """The map sink: collects per-block emissions and flushes them in
    block order.

    Completion order varies once a block can fail and re-run elsewhere;
    flushing in ``(start, stop)`` order makes the pair stream — and every
    float reduction over it — bit-identical to the fault-free run.  Pure
    bookkeeping: no simulated events, so fault-free schedules are
    unchanged.
    """

    def __init__(self, target: list[KeyValue]) -> None:
        self._target = target
        self._chunks: dict[tuple[int, int], list[KeyValue]] = {}

    def record_block(self, block: Block, pairs: list[KeyValue]) -> None:
        self._chunks[(block.start, block.stop)] = list(pairs)

    def flush(self) -> None:
        for key in sorted(self._chunks):
            self._target.extend(self._chunks[key])
        self._chunks.clear()


def _key_hash(text: str) -> int:
    h = 0
    for ch in text:
        h = (h * 131 + ord(ch)) % (1 << 31)
    return h


def hash_partition(
    pairs: Iterable[KeyValue], n_buckets: int
) -> list[list[KeyValue]]:
    """Split *pairs* into per-node buckets by key hash.

    The hash is of ``repr(key)``, not :func:`hash`, so the placement is
    stable across processes and Python hash randomization — simulations
    must be reproducible.  Each distinct ``repr`` is hashed once per
    call; keys that compare equal but print differently (``1``, ``1.0``,
    ``True``) keep their own buckets.
    """
    require_positive_int("n_buckets", n_buckets)
    buckets: list[list[KeyValue]] = [[] for _ in range(n_buckets)]
    slots: dict[str, int] = {}
    for key, value in pairs:
        text = repr(key)
        slot = slots.get(text)
        if slot is None:
            slot = slots[text] = _key_hash(text) % n_buckets
        buckets[slot].append((key, value))
    return buckets


def shuffle_stats(
    buckets: Sequence[Sequence[KeyValue]],
) -> dict[str, Any]:
    """Outgoing-traffic profile of one node's partitioned buckets.

    Computed *before* the all-to-all so the shuffle phase span can be
    annotated with what this node is about to push onto the wire —
    per-destination pair counts, wire-size estimates (same
    ``payload_nbytes`` model the simulated communicator charges), and the
    fan-out (how many destinations actually receive a non-empty bucket).
    ``bytes_by_dest`` is what the shuffle hands ``RankComm.alltoall``, so
    each bucket is sized once.
    """
    pairs_by_dest = [len(bucket) for bucket in buckets]
    bytes_by_dest = [
        payload_nbytes(
            bucket if isinstance(bucket, (list, tuple)) else list(bucket)
        )
        for bucket in buckets
    ]
    return {
        "pairs_by_dest": pairs_by_dest,
        "bytes_by_dest": bytes_by_dest,
        "total_pairs": sum(pairs_by_dest),
        "total_bytes": sum(bytes_by_dest),
        "fanout": sum(1 for n in pairs_by_dest if n > 0),
    }


def apply_combiner(
    pairs: Iterable[KeyValue],
    combiner: Callable[[Any, list[Any]], Any],
) -> list[KeyValue]:
    """Run the optional combiner: collapse each key's values locally.

    This is the node-local pre-reduction the paper's ``cpu_combiner`` /
    ``gpu_device_combiner`` functions perform before the shuffle, shrinking
    the bytes crossing the network.
    """
    return [
        (key, combiner(key, values)) for key, values in group_by_key(pairs).items()
    ]


def sort_pairs(
    pairs: Sequence[KeyValue],
    compare: Callable[[Any, Any], int] | None = None,
) -> list[KeyValue]:
    """Sort pairs by key using the app's ``compare`` (Table 1) if given.

    ``compare(k1, k2)`` follows C conventions: negative / zero / positive.
    Without a comparator, keys must be natively orderable.
    """
    if compare is None:
        return sorted(pairs, key=lambda kv: kv[0])
    import functools

    return sorted(pairs, key=functools.cmp_to_key(
        lambda a, b: compare(a[0], b[0])
    ))
