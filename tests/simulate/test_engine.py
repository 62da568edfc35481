"""Tests for the discrete-event kernel: clock, processes, composition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulate.engine import (
    AllOf,
    Engine,
    Interrupt,
    SimulationError,
)
from tests.helpers import first_of


class TestClock:
    def test_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_timeout_advances_clock(self):
        eng = Engine()
        eng.timeout(5.0)
        eng.run()
        assert eng.now == 5.0

    def test_run_until_time_stops_there(self):
        eng = Engine()
        eng.timeout(10.0)
        eng.run(until=3.0)
        assert eng.now == 3.0
        eng.run()
        assert eng.now == 10.0

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Engine().timeout(-1.0)

    def test_nan_timeout_in_a_process_fails_the_run(self):
        # nan <= horizon is False, so a NaN-stamped event would end the
        # run early and silently instead of resuming the process
        eng = Engine()
        resumed = []

        def proc():
            yield eng.timeout(float("nan"))
            yield eng.timeout(1.0)
            resumed.append(eng.now)

        eng.process(proc())
        with pytest.raises(SimulationError, match="got nan"):
            eng.run()
        assert resumed == []

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_schedule_rejects_negative_and_nan_delays(self, delay):
        eng = Engine()
        with pytest.raises(SimulationError, match=repr(delay)):
            eng._schedule(eng.event(), delay)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20))
    def test_clock_monotone_across_arbitrary_timeouts(self, delays):
        eng = Engine()
        observed = []

        def watcher(d):
            yield eng.timeout(d)
            observed.append(eng.now)

        for d in delays:
            eng.process(watcher(d))
        eng.run()
        assert observed == sorted(observed)
        assert eng.now == max(delays)


class TestProcess:
    def test_process_returns_value(self):
        eng = Engine()

        def job():
            yield eng.timeout(1.0)
            return 42

        proc = eng.process(job())
        assert eng.run(until=proc) == 42

    def test_sequential_yields_accumulate_time(self):
        eng = Engine()

        def job():
            yield eng.timeout(1.0)
            yield eng.timeout(2.0)

        eng.run(eng.process(job()))
        assert eng.now == 3.0

    def test_process_waits_on_subprocess(self):
        eng = Engine()

        def child():
            yield eng.timeout(4.0)
            return "done"

        def parent():
            result = yield eng.process(child())
            return result, eng.now

        assert eng.run(eng.process(parent())) == ("done", 4.0)

    def test_waiting_on_already_finished_process(self):
        eng = Engine()

        def child():
            yield eng.timeout(1.0)
            return "x"

        def parent(c):
            yield eng.timeout(5.0)
            value = yield c  # c finished long ago
            return value, eng.now

        c = eng.process(child())
        assert eng.run(eng.process(parent(c))) == ("x", 5.0)

    def test_yielding_non_event_raises(self):
        eng = Engine()

        def bad():
            yield 42

        eng.process(bad())
        with pytest.raises(SimulationError, match="must"):
            eng.run()

    def test_same_instant_fifo_determinism(self):
        eng = Engine()
        order = []

        def job(tag):
            yield eng.timeout(1.0)
            order.append(tag)

        for tag in "abc":
            eng.process(job(tag))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_exception_in_process_propagates(self):
        eng = Engine()

        def boom():
            yield eng.timeout(1.0)
            raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError, match="kaboom"):
            eng.run(eng.process(boom()))


class TestEvents:
    def test_manual_event_value(self):
        eng = Engine()
        evt = eng.event()

        def waiter():
            value = yield evt
            return value

        proc = eng.process(waiter())
        evt.succeed("hello")
        assert eng.run(proc) == "hello"

    def test_double_trigger_rejected(self):
        eng = Engine()
        evt = eng.event()
        evt.succeed(1)
        with pytest.raises(SimulationError):
            evt.succeed(2)

    def test_failure_thrown_into_waiter(self):
        eng = Engine()
        evt = eng.event()

        def waiter():
            try:
                yield evt
            except ValueError:
                return "caught"

        proc = eng.process(waiter())
        evt.fail(ValueError("nope"))
        assert eng.run(proc) == "caught"

    def test_unwaited_failure_surfaces(self):
        eng = Engine()
        eng.event().fail(ValueError("lost"))
        with pytest.raises(ValueError, match="lost"):
            eng.run()

    def test_value_before_trigger_raises(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            _ = eng.event().value

    def test_deadlock_detected(self):
        eng = Engine()
        evt = eng.event()  # nobody will ever fire this

        def waiter():
            yield evt

        proc = eng.process(waiter())
        with pytest.raises(SimulationError, match="deadlock"):
            eng.run(proc)


class TestComposition:
    def test_all_of_waits_for_slowest(self):
        eng = Engine()
        done = eng.all_of([eng.timeout(1.0, "a"), eng.timeout(5.0, "b")])
        assert eng.run(done) == ["a", "b"]
        assert eng.now == 5.0

    def test_all_of_empty_fires_immediately(self):
        eng = Engine()
        assert eng.run(eng.all_of([])) == []
        assert eng.now == 0.0

    def test_all_of_with_processes(self):
        eng = Engine()

        def job(d):
            yield eng.timeout(d)
            return d

        procs = [eng.process(job(d)) for d in (2.0, 1.0, 3.0)]
        assert eng.run(eng.all_of(procs)) == [2.0, 1.0, 3.0]


class TestInterrupt:
    def test_interrupt_wakes_sleeping_process(self):
        eng = Engine()

        def sleeper():
            try:
                yield eng.timeout(100.0)
                return "overslept"
            except Interrupt as intr:
                return ("interrupted", intr.cause, eng.now)

        proc = eng.process(sleeper())

        def alarm():
            yield eng.timeout(2.0)
            proc.interrupt("wake")

        eng.process(alarm())
        assert eng.run(proc) == ("interrupted", "wake", 2.0)

    def test_interrupting_dead_process_raises(self):
        # A stale handle is a programming error: interrupting a process
        # that already terminated must fail loudly, naming the process.
        eng = Engine()

        def quick():
            yield eng.timeout(1.0)

        proc = eng.process(quick(), name="quickling")
        eng.run(proc)
        assert not proc.is_alive
        with pytest.raises(SimulationError, match="quickling"):
            proc.interrupt("late")

    def test_interrupt_guarded_by_is_alive_race(self):
        # The sanctioned pattern: race work against a signal, guard the
        # interrupt with is_alive — never raises regardless of who wins.
        eng = Engine()
        signal = eng.event()

        def work():
            yield eng.timeout(1.0)
            return "done"

        def supervisor():
            proc = eng.process(work())
            signal.succeed("stop", delay=1.0)  # same instant as completion
            yield first_of(eng, [proc, signal])
            if proc.is_alive:
                proc.interrupt("losing the race")
            result = yield proc
            return result

        assert eng.run(eng.process(supervisor())) == "done"
