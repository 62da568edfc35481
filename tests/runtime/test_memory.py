"""Tests for region-based memory management (§III.C.2)."""

import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.memory import (
    ALIGNMENT,
    MALLOC_OVERHEAD_S,
    Region,
    RegionAllocator,
    naive_alloc_seconds,
)


class TestRegion:
    def test_alloc_returns_view_of_requested_size(self):
        region = Region(1024)
        _, view = region.alloc(100)
        assert view.size == 100

    def test_offsets_aligned(self):
        region = Region(1024)
        offsets = [region.alloc(3)[0] for _ in range(5)]
        assert all(off % ALIGNMENT == 0 for off in offsets)

    def test_allocations_do_not_overlap(self):
        region = Region(1 << 12)
        spans = []
        for size in (10, 33, 7, 100, 64):
            off, _ = region.alloc(size)
            spans.append((off, off + size))
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s2 >= e1

    def test_growth_preserves_contents(self):
        region = Region(64)
        off, view = region.alloc(32)
        view[:] = 7
        region.alloc(1024)  # forces growth + copy
        assert np.all(region.view(off, 32) == 7)

    def test_growth_counts_backing_allocs(self):
        region = Region(64)
        assert region.stats.backing_allocs == 1
        region.alloc(1000)
        assert region.stats.backing_allocs == 2
        assert region.stats.grow_copies == 1

    def test_reset_is_bulk_free(self):
        region = Region(1024)
        for _ in range(10):
            region.alloc(50)
        region.reset()
        # Buffer is reused from its start: no new backing allocation.
        before = region.stats.backing_allocs
        assert region.alloc(50)[0] == 0
        assert region.stats.backing_allocs == before

    def test_view_bounds_checked(self):
        region = Region(1024)
        region.alloc(16)
        with pytest.raises(ValueError):
            region.view(0, 999)

    def test_rejects_zero_alloc(self):
        with pytest.raises(ValueError):
            Region(64).alloc(0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 4096), min_size=1, max_size=50))
    def test_serves_arbitrary_sequences(self, sizes):
        region = Region(128)
        total = 0
        for size in sizes:
            off, view = region.alloc(size)
            assert view.size == size
            total += size
        assert region.stats.bytes_served == total
        assert region.stats.object_allocs == len(sizes)


def _grow_log(region):
    """Record ``(fill level, needed)`` at each growth of *region*."""
    log = []
    grow = region._grow

    def spy(needed):
        log.append((region._top, needed))
        grow(needed)

    region._grow = spy
    return log


def _state(region):
    return (region._top, region.capacity, dataclasses.astuple(region.stats))


class TestReserve:
    """``reserve(count, n)`` must leave a region exactly as ``count``
    calls of ``alloc(n)`` do, growth steps included."""

    @staticmethod
    def _twins(capacity):
        fast, slow = Region(capacity), Region(capacity)
        return fast, slow, _grow_log(fast), _grow_log(slow)

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.sampled_from([16, 100, 4096]),
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from([1, 15, 16, 17, 96, 300]),
                    st.integers(0, 300),
                ),
                st.none(),  # view the span booked since the last view
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_matches_alloc_loop(self, capacity, steps):
        # ``fast`` holds no buffer until its first view; the bytes written
        # through every view must survive each later growth, whether the
        # buffer was made before or after a reserve-driven growth.
        fast, slow, fast_log, slow_log = self._twins(capacity)
        written, seen = [], 0
        for step in steps:
            if step is None:
                for region in (fast, slow):
                    region.view(seen, fast._top - seen)[:] = len(written) + 1
                written.append((seen, fast._top - seen))
                seen = fast._top
            else:
                nbytes, count = step
                fast.reserve(count, nbytes)
                for _ in range(count):
                    slow.alloc(nbytes)
            assert (fast._buffer is None) == (not written)
            assert _state(fast) == _state(slow)
            assert fast_log == slow_log
            for k, (offset, n) in enumerate(written, 1):
                for region in (fast, slow):
                    assert np.all(region.view(offset, n) == k)

    @pytest.mark.parametrize(
        "steps",
        [
            [(256, 16)],  # fills 4096 bytes exactly: no growth
            [(256, 16), (1, 1)],  # one more object on a full region
            [(255, 16), (1, 17)],  # last object ends one byte past
            [(128, 17)],  # 17 bytes align to 32: exactly full again
            [(1, 4096), (1, 4097)],
        ],
    )
    def test_exact_fill_and_one_past(self, steps):
        fast, slow, fast_log, slow_log = self._twins(4096)
        for count, nbytes in steps:
            fast.reserve(count, nbytes)
            for _ in range(count):
                slow.alloc(nbytes)
        assert _state(fast) == _state(slow)
        assert fast_log == slow_log

    def test_exact_fill_does_not_grow_and_one_past_does(self):
        full = Region(4096)
        full.reserve(256, 16)
        assert (full._top, full.capacity) == (4096, 4096)
        assert full.stats.grow_copies == 0
        over = Region(4096)
        over.reserve(255, 16)
        over.reserve(1, 17)
        assert (over._top, over.capacity) == (4112, 8192)
        assert over.stats.bytes_copied == 4080

    def test_validates_arguments(self):
        region = Region(64)
        with pytest.raises(ValueError, match="count"):
            region.reserve(-1, 16)
        with pytest.raises(ValueError, match="nbytes"):
            region.reserve(1, 0)
        region.reserve(0, 16)
        assert _state(region) == _state(Region(64))

    def test_alloc_seconds_reserves_once_per_block(self, monkeypatch):
        from repro.runtime import daemons

        def loop_alloc_seconds(allocator, thread_id, n_objects):
            # oracle: one alloc per KV record
            region = allocator.region(thread_id)
            before = region.stats.backing_allocs
            for _ in range(n_objects):
                region.alloc(daemons._KV_OBJECT_BYTES)
            return (region.stats.backing_allocs - before) * MALLOC_OVERHEAD_S

        blocks = [0, 3, 10, 1, 200, 7, 1000, 64]
        loop_alloc = RegionAllocator(1024)
        want = [loop_alloc_seconds(loop_alloc, "t", n) for n in blocks]

        reserves = []
        reserve = Region.reserve

        def counting_reserve(self, count, nbytes):
            reserves.append((count, nbytes))
            reserve(self, count, nbytes)

        monkeypatch.setattr(Region, "reserve", counting_reserve)
        monkeypatch.setattr(Region, "alloc", None)  # must not be reached
        alloc = RegionAllocator(1024)
        res = types.SimpleNamespace(allocator=alloc)
        got = [daemons._alloc_seconds(res, "t", n, True) for n in blocks]
        assert got == want
        assert reserves == [(n, daemons._KV_OBJECT_BYTES) for n in blocks if n]
        assert _state(alloc.region("t")) == _state(loop_alloc.region("t"))


class TestRegionAllocator:
    def test_per_thread_regions_isolated(self):
        alloc = RegionAllocator(256)
        alloc.alloc("cpu", 100)
        alloc.alloc("gpu0", 100)
        assert alloc.region("cpu") is not alloc.region("gpu0")
        assert alloc.region("cpu").stats.bytes_served == 100
        assert alloc.total_stats().object_allocs == 2

    def test_reset_all(self):
        alloc = RegionAllocator(256)
        alloc.alloc("a", 10)
        alloc.alloc("b", 10)
        alloc.reset_all()
        assert alloc.alloc("a", 10)[0] == alloc.alloc("b", 10)[0] == 0

    def test_block_homes_survive_reset_all(self):
        alloc = RegionAllocator(256)
        alloc.alloc("cpu", 10)
        alloc.note_block((0, 4), "cpu")
        alloc.reset_all()
        assert alloc.home_of((0, 4)) == "cpu"
        assert alloc.home_of((4, 8)) is None

    def test_run_path_regions_hold_no_host_buffer(self, monkeypatch):
        # A simulated run books its objects with ``Region.reserve`` only:
        # across a rank restart's epochs and on many tiny dynamic blocks
        # alike, no region ever makes its buffer, yet every count moves.
        from repro.apps.cmeans import CMeansApp
        from repro.apps.gemv import GemvApp
        from repro.data.synth import gaussian_mixture
        from repro.hardware import delta_cluster
        from repro.runtime import prs
        from repro.runtime.job import JobConfig

        made = []

        class Recording(prs.NodeResources):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(prs, "NodeResources", Recording)
        pts, _, _ = gaussian_mixture(600, 8, 4, seed=3)
        app = CMeansApp(pts, 4, seed=3, max_iterations=3, epsilon=1e-12)
        config = JobConfig(faults="rank_kill@1:t=5e-3", fault_seed=7)
        result = prs.PRSRuntime(delta_cluster(2), config).run(app)
        assert result.recovery.rank_restarts >= 1
        rng = np.random.default_rng(5)
        gemv = GemvApp(
            rng.uniform(-1, 1, (4000, 64)).astype(np.float32),
            rng.uniform(-1, 1, 64).astype(np.float32),
        )
        config = JobConfig(scheduling="dynamic", dynamic_blocks=32)
        prs.PRSRuntime(delta_cluster(8), config).run(gemv)
        assert len(made) > 2 + 8
        regions = [
            region
            for res in made
            for region in res.allocator._regions.values()
        ]
        assert regions and all(r._buffer is None for r in regions)
        totals = [res.allocator.total_stats() for res in made]
        assert sum(t.object_allocs for t in totals) > 0
        assert sum(t.bytes_served for t in totals) > 0
        assert sum(t.backing_allocs for t in totals) >= len(regions)

    def test_total_stats_aggregate(self):
        alloc = RegionAllocator(1 << 16)
        for i in range(10):
            alloc.alloc("t1", 100)
            alloc.alloc("t2", 100)
        total = alloc.total_stats()
        assert total.object_allocs == 20
        assert total.backing_allocs == 2  # one initial buffer each


class TestCostModel:
    def test_region_beats_naive_for_many_small_allocs(self):
        """The paper's rationale: aggregated malloc overhead degrades
        performance when many small requests exist."""
        alloc = RegionAllocator(1 << 20)
        n = 10_000
        for _ in range(n):
            alloc.alloc("gpu0", 64)
        region_cost = alloc.total_stats().simulated_alloc_seconds
        naive_cost = naive_alloc_seconds(n)
        assert region_cost < naive_cost / 100

    def test_naive_cost_linear(self):
        assert naive_alloc_seconds(10) == pytest.approx(10 * MALLOC_OVERHEAD_S)
