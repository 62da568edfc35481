"""Tests for Resource, Link and Store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulate.engine import Engine
from repro.simulate.resources import CorePool, Link, Resource, Store


class TestResource:
    def test_capacity_enforced(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        active = []

        def worker(tag):
            yield from res.using(10.0)
            active.append((tag, eng.now))

        for t in range(4):
            eng.process(worker(t))
        eng.run()
        # 4 jobs of 10s on 2 units: finish at 10,10,20,20
        assert [t for _, t in active] == [10.0, 10.0, 20.0, 20.0]

    def test_fifo_grant_order(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []

        def worker(tag):
            yield from res.using(1.0)
            order.append(tag)

        for tag in "abcd":
            eng.process(worker(tag))
        eng.run()
        assert order == list("abcd")

    def test_release_without_grant_raises(self):
        eng = Engine()
        with pytest.raises(RuntimeError):
            Resource(eng, capacity=1).release()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Engine(), capacity=0)

    @settings(max_examples=20, deadline=None)
    @given(cores=st.integers(1, 8), jobs=st.integers(1, 30),
           duration=st.floats(0.1, 5.0))
    def test_makespan_formula(self, cores, jobs, duration):
        """n identical jobs on c cores finish at ceil(n/c) * d exactly."""
        eng = Engine()
        pool = CorePool(eng, cores)

        def worker():
            yield from pool.using(duration)

        procs = [eng.process(worker()) for _ in range(jobs)]
        eng.run(eng.all_of(procs))
        waves = -(-jobs // cores)
        assert eng.now == pytest.approx(waves * duration)

    def test_never_exceeds_capacity(self):
        eng = Engine()
        res = Resource(eng, capacity=3)
        peak = [0]

        def worker():
            yield res.request()
            peak[0] = max(peak[0], res._in_use)
            yield eng.timeout(1.0)
            res.release()

        for _ in range(10):
            eng.process(worker())
        eng.run()
        assert peak[0] == 3


class TestLink:
    def test_occupancy_formula(self):
        eng = Engine()
        link = Link(eng, bandwidth_gbps=2.0, latency=1e-3)
        assert link.occupancy(4e9) == pytest.approx(2.0 + 1e-3)

    def test_transfers_serialize_fifo(self):
        eng = Engine()
        link = Link(eng, bandwidth_gbps=1.0)
        finishes = []

        def mover(nbytes):
            yield from link.transfer(nbytes)
            finishes.append(eng.now)

        eng.process(mover(1e9))
        eng.process(mover(2e9))
        eng.run()
        assert finishes == [pytest.approx(1.0), pytest.approx(3.0)]

    def test_accounting(self):
        eng = Engine()
        link = Link(eng, bandwidth_gbps=1.0)

        def mover():
            yield from link.transfer(5e8)

        eng.run(eng.process(mover()))
        assert link.bytes_moved == 5e8
        assert link.busy_time == pytest.approx(0.5)

    def test_zero_byte_transfer_costs_latency_only(self):
        eng = Engine()
        link = Link(eng, bandwidth_gbps=1.0, latency=2e-6)

        def mover():
            yield from link.transfer(0.0)

        eng.run(eng.process(mover()))
        assert eng.now == pytest.approx(2e-6)


class TestStore:
    def test_put_then_get(self):
        eng = Engine()
        store = Store(eng)
        store.put("x")

        def getter():
            item = yield store.get()
            return item

        assert eng.run(eng.process(getter())) == "x"

    def test_get_blocks_until_put(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def getter():
            item = yield store.get()
            got.append((item, eng.now))

        def putter():
            yield eng.timeout(3.0)
            store.put("late")

        eng.process(getter())
        eng.process(putter())
        eng.run()
        assert got == [("late", 3.0)]

    def test_fifo_item_order(self):
        eng = Engine()
        store = Store(eng)
        for i in range(5):
            store.put(i)
        got = []

        def getter():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        eng.run(eng.process(getter()))
        assert got == [0, 1, 2, 3, 4]

    def test_fifo_getter_order(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def getter(tag):
            item = yield store.get()
            got.append((tag, item))

        for tag in "ab":
            eng.process(getter(tag))

        def putter():
            yield eng.timeout(1.0)
            store.put(1)
            store.put(2)

        eng.process(putter())
        eng.run()
        assert got == [("a", 1), ("b", 2)]

    def test_len_counts_buffered(self):
        eng = Engine()
        store = Store(eng)
        store.put("a")
        store.put("b")
        assert len(store) == 2
