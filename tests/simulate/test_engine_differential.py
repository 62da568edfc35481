"""Differential test of the event loop against a heap-only reference.

:class:`HeapEngine` is the engine as it was before zero-delay events got
their own FIFO: every event goes through one heap ordered by
``(time, seq)``, and ``run`` pops it one ``step`` at a time.  Seeded
random process programs run on both schedulers; every dispatch (time,
event class, value, the processes its callbacks resume), every process
log line, ``events_scheduled``, the clock after each ``run`` call and
every error must be the same.
"""

from __future__ import annotations

import heapq
import random
from typing import Any

import pytest

from repro.simulate.engine import (
    Engine,
    Event,
    Interrupt,
    SimulationError,
    _dispatch_scope,
)


class HeapEngine(Engine):
    """Reference scheduler: a single heap, one event per ``step``."""

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if not delay >= 0:
            raise SimulationError(f"event delay must be >= 0, got {delay!r}")
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))
        self._seq += 1

    def step(self) -> None:
        when, _, event = heapq.heappop(self._heap)
        if when < self.now:
            raise SimulationError("time went backwards")
        self.now = when
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        self.selfprof.dispatch(event, callbacks, _dispatch_scope)
        for callback in callbacks:
            callback(event)
        if not event.ok and not callbacks:
            self.log.error(
                "engine", f"unwaited event failure: {event.value!r}", t=self.now
            )
            raise event.value

    def run(self, until: float | Event | None = None) -> Any:
        if isinstance(until, Event):
            while not until._processed:
                if not self._heap:
                    self._deadlock()
                self.step()
            self.selfprof.flush_dispatch()
            if not until.ok:
                raise until.value
            return until.value
        horizon = float("inf") if until is None else float(until)
        while self._heap and self._heap[0][0] <= horizon:
            self.step()
        self.selfprof.flush_dispatch()
        if until is not None and horizon > self.now:
            self.now = horizon
        return None


class DispatchRecorder:
    """A ``selfprof`` stand-in that logs every dispatch."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.log: list[tuple] = []

    def dispatch(self, event: Event, callbacks: list, classify: Any) -> None:
        resumed = tuple(
            getattr(getattr(cb, "__self__", None), "name", "-") for cb in callbacks
        )
        self.log.append(
            (self.engine.now, type(event).__name__, repr(event._value), resumed)
        )

    def flush_dispatch(self) -> None:
        self.log.append(("flush", self.engine.now))


POSITIVE = (0.25, 0.5, 1.0)
#: small enough that ``now + TINY == now`` once the clock passes ~0.01
TINY = 1e-18


def program(engine: Engine, seed: int, n_procs: int = 6, n_actions: int = 12):
    """Start a seeded random process program on *engine*; return the
    shared log, the process handles and a never-fired event."""
    rng = random.Random(seed)
    log: list[tuple] = []
    procs: list = []
    done: list[Event] = []  # events known to be processed by now
    never = engine.event()

    def delay() -> float:
        return rng.choice((0.0, 0.0, TINY, *POSITIVE))

    def worker(name: str, depth: int):
        for i in range(n_actions):
            kind = rng.randrange(8)
            tag = f"{name}.{i}"
            try:
                if kind == 0:
                    d = delay()
                    log.append((name, "timeout", d, engine.now + d == engine.now))
                    value = yield engine.timeout(d, tag)
                elif kind == 1 and depth < 2:
                    child = engine.process(
                        worker(f"{name}/{i}", depth + 1), name=f"{name}/{i}"
                    )
                    procs.append(child)
                    if rng.random() < 0.5:
                        value = yield child
                        done.append(child)
                    else:
                        value = yield engine.timeout(0.0, tag)
                elif kind == 2 and done:
                    value = yield rng.choice(done)  # already processed
                elif kind == 3:
                    children = [engine.timeout(delay(), f"{tag}.{j}") for j in range(2)]
                    children += rng.sample(done, min(len(done), rng.randrange(3)))
                    rng.shuffle(children)
                    value = yield engine.all_of(children)
                elif kind == 4:
                    target = rng.choice(procs) if procs else None
                    if target is not None and target.is_alive:
                        log.append((name, "interrupt", target.name))
                        target.interrupt(tag)
                    value = yield engine.timeout(delay(), tag)
                elif kind == 5:
                    evt = engine.event()
                    if rng.random() < 0.3:
                        evt.fail(ValueError(tag), delay=delay())
                    else:
                        evt.succeed(tag, delay=delay())
                    value = yield evt
                elif kind == 6:
                    # an event triggered now and only yielded once processed
                    evt = engine.event().succeed(tag)
                    yield engine.timeout(delay())
                    value = yield evt
                else:
                    value = yield engine.timeout(rng.choice(POSITIVE), tag)
            except Interrupt as intr:
                value = ("interrupted", intr.cause)
            except ValueError as exc:
                value = ("failed", str(exc))
            log.append((name, i, engine.now, repr(value)))
        return name

    for p in range(n_procs):
        procs.append(engine.process(worker(f"p{p}", 0), name=f"p{p}"))
    return log, procs, never


def drive(engine_cls: type, seed: int) -> dict[str, Any]:
    """Run one program through a fixed sequence of ``run`` calls."""
    engine = engine_cls()
    recorder = engine.selfprof = DispatchRecorder(engine)
    log, procs, never = program(engine, seed)
    rng = random.Random(seed * 7 + 1)
    clocks, errors, triggers, sizes = [], [], [], []
    horizons = [rng.choice((0.0, 0.3, 0.5, 0.75)), None, rng.uniform(1.0, 2.0)]
    horizons[1] = horizons[0] - 0.5  # a horizon in the past
    calls: list[Any] = [*horizons, procs[0], None]
    if seed % 3 == 0:
        waiter = engine.process(_wait_on(never), name="stuck")
        calls.append(waiter)  # a deadlock
    for until in calls:
        # Events triggered between run calls: due now (so still queued
        # when the next horizon lies in the past), later, or failing
        # with nobody waiting.
        kind = rng.randrange(4)
        triggers.append(kind)
        if kind == 1:
            engine.event().succeed("outside")
        elif kind == 2:
            engine.event().succeed("outside-later", delay=rng.choice(POSITIVE))
        elif kind == 3 and rng.random() < 0.3:
            engine.event().fail(ValueError("unwaited"))
        try:
            engine.run(until)
        except (SimulationError, ValueError) as exc:
            errors.append((type(exc).__name__, str(exc)))
        clocks.append(engine.now)
        sizes.append(len(recorder.log))
    return {
        "dispatches": recorder.log,
        "log": log,
        "events_scheduled": engine.events_scheduled,
        "clocks": clocks,
        "errors": errors,
        "triggers": triggers,
        "sizes": sizes,
    }


def _wait_on(event: Event):
    yield event


@pytest.mark.parametrize("seed", range(40))
def test_fifo_engine_matches_heap_reference(seed):
    fast = drive(Engine, seed)
    reference = drive(HeapEngine, seed)
    assert fast["dispatches"], "the program dispatched nothing"
    for key in reference:
        assert fast[key] == reference[key], key


def test_programs_cover_the_interesting_cases():
    """The seeds above exercise tiny delays that do not move the clock,
    interrupts, past horizons, failures and deadlocks."""
    outs = [drive(Engine, seed) for seed in range(40)]
    lines = [line for out in outs for line in out["log"]]
    assert any(line[1] == "timeout" and line[2] == TINY and line[3] for line in lines)
    assert any(line[1] == "interrupt" for line in lines)
    assert any("interrupted" in str(line[-1]) for line in lines)
    assert any("failed" in str(line[-1]) for line in lines)
    errors = [err for out in outs for err in out["errors"]]
    assert any("deadlock" in message for _, message in errors)
    assert any("unwaited" in message for _, message in errors)
    # Some second run call, with its horizon before the clock, found an
    # event due now and dispatched nothing (its only record: the flush).
    assert any(
        out["triggers"][1] == 1 and out["sizes"][1] - out["sizes"][0] == 1
        for out in outs
    )
