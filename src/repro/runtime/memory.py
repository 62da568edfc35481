"""Region-based memory management (paper §III.C.2).

"Instead of allocating many small memory buffers, the runtime library
allocates a block of memory for each CPU or GPU thread, whose size should
be big enough to serve many small memory allocations.  When the block is
filled, the runtime library will increase the buffer and copy the data to
new buffer.  [...] the collection of allocated objects in the region can be
deallocated all at once."

:class:`RegionAllocator` implements exactly that: per-thread (per-daemon)
:class:`Region` bump allocators with geometric growth and O(1)
whole-region reset.  The allocator tracks the bookkeeping the ablation
benchmark reports: how many OS-level allocations (`malloc`-equivalents)
were issued versus how many object allocations were served, and how many
bytes were copied during growth.

The cost model used by the simulated GPU daemon charges
``MALLOC_OVERHEAD_S`` per backing allocation — the "aggregated overhead of
the malloc operations" the paper says degrades performance when many small
requests hit ``cudaMalloc``.  A simulated run needs only those counts, so
it books its objects with :meth:`Region.reserve` and its regions never
hold host bytes; a region makes its buffer on the first :meth:`Region.alloc`
or :meth:`Region.view`, for callers that use the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import require_nonnegative_int, require_positive_int

#: Simulated cost of one device-memory allocation (cudaMalloc-class call).
MALLOC_OVERHEAD_S = 1e-4

#: Default initial region size: big enough to serve "many small" requests.
DEFAULT_REGION_BYTES = 1 << 20

#: All returned offsets are aligned to this many bytes.
ALIGNMENT = 16


@dataclass
class AllocationStats:
    """Counters distinguishing object allocations from backing mallocs."""

    object_allocs: int = 0
    backing_allocs: int = 0
    grow_copies: int = 0
    bytes_copied: int = 0
    bytes_served: int = 0

    @property
    def simulated_alloc_seconds(self) -> float:
        """Simulated time spent in backing allocations."""
        return self.backing_allocs * MALLOC_OVERHEAD_S


class Region:
    """One contiguous bump-allocated buffer.

    ``alloc(nbytes)`` returns a ``(offset, view)`` pair: the byte offset
    inside the region and a NumPy ``uint8`` view of the reserved span.
    Offsets are 16-byte aligned.  ``reset()`` frees every object at once
    without touching the backing buffer, which the first ``alloc`` or
    ``view`` makes at the current capacity: a region booked only through
    :meth:`reserve` (the run path) never holds host bytes.
    """

    def __init__(self, capacity: int = DEFAULT_REGION_BYTES, name: str = "region") -> None:
        require_positive_int("capacity", capacity)
        self.name = name
        self.capacity = capacity
        self._buffer: np.ndarray | None = None
        self._top = 0
        self.stats = AllocationStats(backing_allocs=1)

    # ------------------------------------------------------------------
    def _bytes(self) -> np.ndarray:
        if self._buffer is None:
            self._buffer = np.zeros(self.capacity, dtype=np.uint8)
        return self._buffer

    def alloc(self, nbytes: int) -> tuple[int, np.ndarray]:
        """Reserve *nbytes*; grows the backing buffer when full."""
        require_positive_int("nbytes", nbytes)
        aligned = -(-nbytes // ALIGNMENT) * ALIGNMENT
        if self._top + aligned > self.capacity:
            self._grow(self._top + aligned)
        offset = self._top
        self._top += aligned
        self.stats.object_allocs += 1
        self.stats.bytes_served += nbytes
        return offset, self._bytes()[offset : offset + nbytes]

    def reserve(self, count: int, nbytes: int) -> None:
        """Reserve *count* spans of *nbytes* each, with no views.

        Leaves ``_top``, the capacity and every :class:`AllocationStats`
        field exactly as ``count`` calls of :meth:`alloc` would: the
        region grows at the same fill levels, so each growth copies the
        same bytes.  One loop turn per growth step, not per object.
        """
        require_nonnegative_int("count", count)
        require_positive_int("nbytes", nbytes)
        aligned = -(-nbytes // ALIGNMENT) * ALIGNMENT
        left = count
        while True:
            fits = min(left, (self.capacity - self._top) // aligned)
            self._top += fits * aligned
            left -= fits
            if not left:
                break
            self._grow(self._top + aligned)
        self.stats.object_allocs += count
        self.stats.bytes_served += count * nbytes

    def _grow(self, needed: int) -> None:
        """Geometric growth with copy (of a buffer already made)."""
        new_capacity = max(self.capacity * 2, needed)
        if self._buffer is not None:
            kept = self._buffer[: self._top]
            self._buffer = np.pad(kept, (0, new_capacity - self._top))
        self.capacity = new_capacity
        self.stats.backing_allocs += 1
        self.stats.grow_copies += 1
        self.stats.bytes_copied += self._top

    def reset(self) -> None:
        """Deallocate every object in the region at once (O(1))."""
        self._top = 0

    def view(self, offset: int, nbytes: int) -> np.ndarray:
        """Re-materialise a previously returned span."""
        if not 0 <= offset <= self._top - nbytes or nbytes < 0:
            raise ValueError(
                f"{self.name}: span [{offset}, {offset + nbytes}) not allocated"
            )
        return self._bytes()[offset : offset + nbytes]


class RegionAllocator:
    """Per-thread regions, as PRS gives each CPU/GPU daemon its own.

    ``region(thread_id)`` lazily creates the region for a daemon thread;
    ``reset_all()`` is the end-of-stage bulk free.  ``total_stats`` sums the
    counters across threads for the ablation report.
    """

    def __init__(self, region_bytes: int = DEFAULT_REGION_BYTES) -> None:
        require_positive_int("region_bytes", region_bytes)
        self._region_bytes = region_bytes
        self._regions: dict[str, Region] = {}
        self._resets = 0
        #: counters already published to a metrics registry (diff base)
        self._published = AllocationStats(backing_allocs=0)
        self._published_resets = 0
        #: region map: item span -> daemon thread whose region last held
        #: that block's intermediates.  Pure bookkeeping for the affinity
        #: scheduling policy ("place blocks where their input regions
        #: already live"); survives :meth:`reset_all` because the *home*
        #: of a block is a property of the daemon, not of the recycled
        #: buffer contents.
        self._block_regions: dict[tuple[int, int], str] = {}

    def region(self, thread_id: str) -> Region:
        reg = self._regions.get(thread_id)
        if reg is None:
            reg = Region(self._region_bytes, name=f"region[{thread_id}]")
            self._regions[thread_id] = reg
        return reg

    def alloc(self, thread_id: str, nbytes: int) -> tuple[int, np.ndarray]:
        return self.region(thread_id).alloc(nbytes)

    def reset_all(self) -> None:
        for region in self._regions.values():
            region.reset()
        self._resets += 1

    def note_block(self, key: tuple[int, int], thread_id: str) -> None:
        """Record that block *key*'s intermediates live in *thread_id*'s
        region (called by the daemons after each map block)."""
        self._block_regions[key] = thread_id

    def home_of(self, key: tuple[int, int]) -> str | None:
        """The daemon thread whose region last held block *key*."""
        return self._block_regions.get(key)

    def publish_metrics(self, metrics, **labels) -> None:
        """Flush counter deltas since the last publish into *metrics*.

        *metrics* is a :class:`repro.obs.MetricsRegistry` (duck-typed to
        keep this module free of runtime imports).  Called by the gather
        phase just before the end-of-stage bulk free, so the registry
        tracks bytes allocated, backing mallocs, growth copies, and
        region resets per node without the allocator holding a registry.
        """
        from repro import obs

        stats = self.total_stats()
        prev = self._published
        deltas = (
            (obs.REGION_OBJECT_ALLOCS, stats.object_allocs - prev.object_allocs),
            (obs.REGION_BACKING_ALLOCS, stats.backing_allocs - prev.backing_allocs),
            (obs.REGION_BYTES_SERVED, stats.bytes_served - prev.bytes_served),
            (obs.REGION_BYTES_COPIED, stats.bytes_copied - prev.bytes_copied),
            (obs.REGION_RESETS, self._resets - self._published_resets),
        )
        for name, delta in deltas:
            if delta > 0:
                metrics.counter(name).inc(delta, **labels)
        metrics.gauge(obs.REGION_CAPACITY_BYTES).set(
            sum(r.capacity for r in self._regions.values()), **labels
        )
        self._published = stats
        self._published_resets = self._resets

    def total_stats(self) -> AllocationStats:
        total = AllocationStats(backing_allocs=0)
        for region in self._regions.values():
            s = region.stats
            total.object_allocs += s.object_allocs
            total.backing_allocs += s.backing_allocs
            total.grow_copies += s.grow_copies
            total.bytes_copied += s.bytes_copied
            total.bytes_served += s.bytes_served
        return total


def naive_alloc_seconds(n_objects: int) -> float:
    """Simulated cost of the no-region strategy: one malloc per object.

    The ablation benchmark compares this against
    ``RegionAllocator.total_stats().simulated_alloc_seconds``.
    """
    require_positive_int("n_objects", n_objects)
    return n_objects * MALLOC_OVERHEAD_S
