"""A minimal process-based discrete-event simulation kernel.

The kernel follows the SimPy process model: a *process* is a Python
generator that yields :class:`Event` objects and is resumed when the event
triggers.  Only the features the PRS simulation needs are implemented —
timeouts, process-completion events, AND composition, interrupts — which
keeps the kernel small enough to reason about and test exhaustively.

Determinism: every scheduled event gets a monotone sequence number, and
events fire in ``(time, seq)`` order, so events scheduled for the same
instant fire in FIFO scheduling order and simulations are
bit-reproducible across runs — a property the scheduling benchmarks rely
on.  Zero-delay events (process bootstraps and exits, condition and
interrupt hops: a third of all events in a dynamic-dispatch run, more
under faults) skip the heap: they go to a FIFO of ``(seq, event)`` at
the current instant, and only positive delays are heap-ordered by
``(time, seq)``.
The next event is the FIFO head unless the heap head is due now with a
smaller seq, which happens when a positive delay was scheduled for this
instant earlier or is too small to move the clock (``now + d == now``).
The merge yields exactly the ``(time, seq)`` order of a single heap.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, NoReturn, Optional

from repro.obs.log import NULL_LOG
from repro.obs.selfprof import NULL_PROFILER

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, negative or NaN delay...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """An occurrence that processes can wait on.

    An event starts *pending*, becomes *triggered* when given a value (or
    failure), and runs its callbacks when the engine processes it.  Events
    may only trigger once.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with *value* after *delay*."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        self.engine._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as a failure carrying *exception*."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.engine._schedule(self, delay)
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        # Event.__init__'s slots, set inline: a timeout is born triggered.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        engine._schedule(self, delay)


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator yields :class:`Event` instances.  When a yielded event is
    processed the generator resumes with the event's value (or has the
    failure exception thrown into it).
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(
        self,
        engine: "Engine",
        generator: Generator[Event, Any, Any],
        name: str = "proc",
    ) -> None:
        super().__init__(engine)
        self.generator = generator
        self.name = name
        self._waiting_on: Optional[Event] = None
        # Bootstrap: resume the process at the current instant.
        init = Event(engine)
        init.callbacks.append(self._resume)
        init._triggered = True
        engine._schedule(init)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(
        self, cause: Any = None, guard: Callable[[], bool] | None = None
    ) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupt lands one zero-delay event later.  A *guard*, when
        given, is asked again at that point and a false answer drops the
        interrupt: a daemon lane that finished the interrupted block in
        between must not take the interrupt into its next one.

        Interrupting a process that already terminated is a programming
        error (the caller holds a stale handle); raise loudly instead of
        silently dropping the interrupt.  Callers that may legitimately
        race a process's completion should guard with ``is_alive``.
        """
        if not self.is_alive:
            raise SimulationError(
                f"cannot interrupt process {self.name!r}: it already "
                "terminated (guard the call with `proc.is_alive` if the "
                "race is intentional)"
            )
        exc = Interrupt(cause)
        wake = Event(self.engine)

        def _deliver(_evt: Event) -> None:
            if not self.is_alive or (guard is not None and not guard()):
                return
            waiting = self._waiting_on
            if waiting is not None and self._resume in waiting.callbacks:
                waiting.callbacks.remove(self._resume)
            self._waiting_on = None
            self._step(exc, throw=True)

        wake.callbacks.append(_deliver)
        wake.succeed()

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # A bound method of the process: the self-profiler classifies a
        # dispatch by its first callback's ``__self__``.
        self._waiting_on = None
        self._step(event._value, not event._ok)

    def _step(self, value: Any, throw: bool) -> None:
        try:
            if throw:
                target = self.generator.throw(value)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            raise SimulationError(
                f"process {self.name!r} did not handle an Interrupt"
            ) from None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
        if target._processed:
            # Already-processed events resume the process immediately (at
            # the current instant) rather than hanging forever.
            immediate = Event(self.engine)
            immediate.callbacks.append(self._resume)
            if target._ok:
                immediate.succeed(target._value)
            else:
                immediate.fail(target._value)
            self._waiting_on = immediate
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


class AllOf(Event):
    """Fires when every child event has fired; value = list of child values.

    A failed child fails the condition immediately with its exception.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events = tuple(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed([])
            return
        for evt in self.events:
            if evt._processed:
                self._on_child(evt)
            else:
                evt.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self.events])


def _dispatch_scope(
    profiler: Any, event: Event, callbacks: list
) -> tuple[str, "Process | None"]:
    """Scope name charging this dispatch to an event/process class, and
    the process it is named after: the resumed owner, the exiting event,
    or ``None`` (so the profiler may cache it per process name).

    When the first callback resumes a process, the dispatch is charged
    to that process's class (``engine:resume:<name-sans-digits>``) — in
    PRS the resumed generator does the actual work.  Otherwise the event
    itself is classified: a finished process (``engine:exit:...``), a
    timeout, or a bare event.  Classification reads only names and
    types; it is memoized per class inside the profiler.
    """
    if callbacks:
        owner = getattr(callbacks[0], "__self__", None)
        if isinstance(owner, Process):
            return profiler.dispatch_key(owner.name, "resume"), owner
    if isinstance(event, Process):
        return profiler.dispatch_key(event.name, "exit"), event
    if isinstance(event, Timeout):
        return "engine:timeout", None
    return "engine:event", None


class Engine:
    """The event loop: a clock, a FIFO of events due now, and a heap of
    later events (see the module docstring for the order)."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: zero-delay events as ``(seq, event)``, all due at ``now``
        self._fifo: deque[tuple[int, Event]] = deque()
        #: positive-delay events as ``(time, seq, event)``
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: host-side :class:`repro.obs.selfprof.SelfProfiler` (else the
        #: do-nothing ``NULL_PROFILER``), handed every event dispatch,
        #: and :class:`repro.obs.log.EventLog` (else ``NULL_LOG``), told
        #: of dispatch failures (unwaited event errors, deadlocks).
        #: Neither schedules events or touches ``now``/``_seq``, so
        #: enabling them cannot perturb the simulation
        #: (tests/obs/test_selfprof.py, tests/obs/test_log.py).
        self.selfprof: Any = NULL_PROFILER
        self.log: Any = NULL_LOG
        #: callables consulted when the queue drains while an awaited event
        #: is still pending; each may return a line of context (or None)
        #: that is appended to the deadlock error message.  Subsystems such
        #: as the simulated MPI layer register reporters here so a silent
        #: hang names the blocked (rank, tag) pairs instead of leaving the
        #: user to bisect the schedule.
        self.diagnostics: list[Callable[[], Optional[str]]] = []

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled on this engine — a deterministic
        measure of simulated work.  The sampler-overhead benchmark
        compares this between sampled and unsampled runs (equal by
        construction: sampling schedules nothing)."""
        return self._seq

    # ------------------------------------------------------------------
    # Factory helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str = "proc"
    ) -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling / running
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay == 0.0:
            self._fifo.append((self._seq, event))
        elif delay > 0.0:
            heappush(self._heap, (self.now + delay, self._seq, event))
        else:
            raise SimulationError(f"event delay must be >= 0, got {delay!r}")
        self._seq += 1

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, *until* time passes, or event fires.

        Returns the event's value when *until* is an event.
        """
        if isinstance(until, Event):
            stop = until
            horizon = float("inf")
        else:
            # a stop event nothing triggers: the loop ends at the horizon
            stop = Event(self)
            horizon = float("inf") if until is None else float(until)
        fifo = self._fifo
        heap = self._heap
        popleft = fifo.popleft
        dispatch = self.selfprof.dispatch
        while not stop._processed:
            # `not t <= horizon`, not `t > horizon`: a NaN horizon runs nothing
            if fifo:
                if not self.now <= horizon:
                    break
                if heap and heap[0][0] == self.now and heap[0][1] < fifo[0][0]:
                    event = heappop(heap)[2]
                else:
                    event = popleft()[1]
            elif heap:
                if not heap[0][0] <= horizon:
                    break
                self.now, _, event = heappop(heap)
            elif stop is until:
                self._deadlock()
            else:
                break
            event._processed = True
            callbacks = event.callbacks
            event.callbacks = []
            dispatch(event, callbacks, _dispatch_scope)
            for callback in callbacks:
                callback(event)
            if not event._ok and not callbacks:
                # A failure nobody waits on would vanish silently;
                # surface it.
                self.log.error(
                    "engine",
                    f"unwaited event failure: {event._value!r}",
                    t=self.now,
                )
                raise event._value
        self.selfprof.flush_dispatch()
        if stop is until:
            if not stop._ok:
                raise stop._value
            return stop._value
        if until is not None and horizon > self.now:
            self.now = horizon
        return None

    def _deadlock(self) -> NoReturn:
        """Raise for a drained queue while the awaited event is pending."""
        message = (
            "queue drained before the awaited event triggered "
            "(deadlock: a process is waiting on an event nobody "
            "will fire)"
        )
        details = [line for line in (fn() for fn in self.diagnostics) if line]
        if details:
            message += "\n" + "\n".join(details)
        self.log.error(
            "engine",
            "deadlock: queue drained with an awaited event pending",
            t=self.now,
            diagnostics=len(details),
        )
        raise SimulationError(message)
