"""Tests for Resource, Link and Store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulate.engine import Engine, Interrupt
from repro.simulate.resources import CorePool, Link, Resource, Store


def request(res):
    """The event form of a grant, the oracle for the in-place
    :meth:`Resource.acquire`: every grant is an event, even of a free
    unit."""
    evt = res.engine.event()
    if res._in_use < res.capacity:
        res._in_use += 1
        res.grants += 1
        evt.succeed()
    else:
        res._waiters.append(evt)
    return evt


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
            yield from res.acquire()
            peak[0] = max(peak[0], res._in_use)
            yield eng.timeout(1.0)
            res.release()

        for _ in range(10):
            eng.process(worker())
        eng.run()
        assert peak[0] == 3


class TestInPlaceGrant:
    """A free unit is taken without an event; waiters keep FIFO order."""

    def test_uncontended_acquire_schedules_no_event(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        for held in (1, 2):
            before = eng.events_scheduled
            with pytest.raises(StopIteration):
                next(res.acquire())
            assert eng.events_scheduled == before
            assert (res._in_use, res.grants) == (held, held)
        # the third acquire queues; handing it a unit is the one event
        waiting = res.acquire()
        assert next(waiting) is res._waiters[0]
        res.release()
        assert eng.events_scheduled == 1 and res._in_use == 2

    def test_contended_waiters_are_served_fifo(self):
        """A unit handed to a waiter at release is not free: a request
        made at the same instant, before the waiter resumes, queues
        behind it."""
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []

        def worker(tag, arrive, hold):
            yield eng.timeout(arrive)
            yield from res.acquire()
            order.append((tag, eng.now))
            yield eng.timeout(hold)
            res.release()

        eng.process(worker("a", 0.0, 1.0))
        eng.process(worker("b", 0.5, 1.0))
        eng.process(worker("c", 0.75, 1.0))
        # arrives at the instant "a" releases, after the hand-over to "b"
        eng.process(worker("d", 1.0, 1.0))
        eng.run()
        assert order == [("a", 0.0), ("b", 1.0), ("c", 2.0), ("d", 3.0)]

    @pytest.mark.parametrize("granted", [False, True], ids=["queued", "granted"])
    def test_interrupt_while_queued_cancels_without_leaking(self, granted):
        """Interrupted in the queue (or after the grant was scheduled but
        before the waiter saw it): the request goes and the unit stays
        free for the next taker."""
        eng = Engine()
        res = Resource(eng, capacity=1)
        log = []

        def holder():
            yield from res.acquire()
            yield eng.timeout(0.5)
            if granted:
                # the interrupt is already on its way when the unit is
                # handed over, so it lands before the waiter sees it
                victim.interrupt("stop")
                res.release()
            else:
                victim.interrupt("stop")
                yield eng.timeout(0.5)
                res.release()

        def waiter():
            try:
                yield from res.acquire()
            except Interrupt:
                log.append(("interrupted", eng.now, res._in_use))

        eng.process(holder())
        victim = eng.process(waiter())
        eng.run()
        # queued: only the holder's unit is in use; granted: the cancel
        # already gave back the unit handed to the waiter
        assert log == [("interrupted", 0.5, 0 if granted else 1)]
        assert res._in_use == 0 and not res._waiters
        with pytest.raises(StopIteration):
            next(res.acquire())
        assert res._in_use == 1

    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.integers(1, 4),
        jobs=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 4)),
            min_size=1, max_size=20,
        ),
    )
    def test_grants_match_the_event_form(self, capacity, jobs):
        """Same grants, same grant instants and one event fewer per
        uncontended grant than ``yield request``."""

        def run(in_place):
            eng = Engine()
            res = Resource(eng, capacity=capacity)
            got = []

            def worker(tag, arrive, hold):
                yield eng.timeout(arrive * 0.25)
                if in_place:
                    yield from res.acquire()
                else:
                    yield request(res)
                got.append((tag, eng.now))
                yield eng.timeout(hold * 0.5)
                res.release()

            for tag, (arrive, hold) in enumerate(jobs):
                eng.process(worker(tag, arrive, hold))
            eng.run()
            return res.grants, sorted(got), eng.events_scheduled, res

        grants, got, events, res = run(in_place=True)
        oracle_grants, oracle_got, oracle_events, _ = run(in_place=False)
        assert grants == oracle_grants == len(jobs)
        assert got == oracle_got
        assert events < oracle_events
        assert res._in_use == 0 and not res._waiters


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
