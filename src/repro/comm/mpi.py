"""An mpi4py-flavoured communicator whose ranks are simulated processes.

:class:`World` owns one mailbox per (destination, source, tag) triple;
:class:`RankComm` is the per-rank handle exposing ``send``/``recv`` and the
collectives.  All methods are *process fragments*: call them with
``yield from comm.send(...)`` inside a DES process.

Semantics follow MPI closely where it matters to the runtime:

* ``send`` is eager/buffered (returns after charging the wire time; the
  payload is then in flight) — matching mpi4py's pickle-path ``send`` for
  the modest message sizes PRS exchanges;
* ``recv`` blocks until a matching message arrives; messages between one
  (source, destination, tag) pair are non-overtaking, as MPI guarantees;
* collectives (binomial-tree ``bcast``, linear ``gather``/``scatter``,
  pairwise ``alltoall``) are built from point-to-point messages, so their
  simulated cost emerges from message timing rather than being asserted.

Message timing: a message of ``n`` bytes from one node to another becomes
visible to the receiver ``latency + n/bandwidth`` seconds after the send;
rank-local messages (same node) are free.  Payloads are passed by
reference — the simulation is single-process, and the runtime treats
received arrays as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro import obs
from repro._validation import require_nonnegative_int
from repro.hardware.cluster import NetworkSpec
from repro.simulate.engine import Engine, Event, Interrupt
from repro.simulate.resources import Store
from repro.simulate.trace import Trace

#: Fallback size estimate for payloads we cannot introspect.
_DEFAULT_OBJECT_BYTES = 64.0

#: Reserved tag for the heartbeat/ack layer (outside app and collective tags).
HEARTBEAT_TAG = -777


def describe_tag(tag: int) -> str:
    """Human-readable class of a message tag.

    Tags encode their origin by range (see :mod:`repro.runtime.phases`
    for the runtime's conventions); the class is what the comm matrix and
    the per-pair Prometheus series label traffic with, keeping label
    cardinality bounded while per-iteration tags stay unique for
    non-overtaking delivery.
    """
    if tag == HEARTBEAT_TAG:
        return "heartbeat"
    if tag >= 100_000:
        return "shuffle"
    if 4000 <= tag < 100_000:
        return "stop"
    if 3000 <= tag < 4000:
        return "gather"
    if 1000 <= tag < 3000:
        return "state"
    if tag < 0:
        return "collective"
    return "p2p"


@dataclass
class _Envelope:
    """In-flight message metadata riding the mailbox with the payload."""

    payload: Any
    msg_id: int
    src: int
    nbytes: float
    sent_at: float
    retransmits: int = 0
    delay_s: float = 0.0


class CommTimeout(RuntimeError):
    """A ``recv`` saw no matching message before its :class:`Deadline`."""

    def __init__(self, rank: int, source: int, tag: int, timeout: float) -> None:
        self.rank = rank
        self.source = source
        self.tag = tag
        self.timeout = timeout
        super().__init__(
            f"rank {rank}: recv from rank {source} tag {tag} timed out "
            f"after {timeout:g}s"
        )


class EpochAborted(RuntimeError):
    """The current epoch's global abort event fired (a rank was declared
    dead); every blocked receive unwinds so the driver can restart."""

    def __init__(self, cause: Any = None) -> None:
        self.cause = cause
        super().__init__(f"epoch aborted: {cause!r}")


class _Lost(Exception):
    """Thrown into a receive whose abort event or deadline (``args[0]``)
    won the race against its message."""


class Deadline:
    """A heartbeat monitor's receive deadline: windows of *window*
    seconds and one pending timer.

    :meth:`restart` opens a window ending ``window`` seconds from now,
    scheduling nothing while a timer is pending.  A timer firing before
    the window's end (beats moved it on) re-arms for the time left; one
    firing at the end expires the window: like a processed
    :class:`Event`, it sets ``_processed`` and runs its ``callbacks``.
    A window begins at or after the previous end, so a timer fires with
    ``at <= 2 * now``: ``at - now`` is exact and the re-armed timer lands
    on ``at`` itself.  :meth:`close` ends the deadline with its monitor.
    """

    __slots__ = ("engine", "window", "at", "callbacks", "_processed")

    def __init__(self, engine: Engine, window: float) -> None:
        self.engine = engine
        self.window = window
        self.callbacks: list[Callable[[Deadline], None]] = []
        self._processed = True
        self.restart()

    def restart(self) -> None:
        """Open a new window ending ``window`` seconds from now."""
        self.at = self.engine.now + self.window
        if self._processed:
            self._arm(self.window)

    def close(self) -> None:
        """End the last window now: a pending timer then expires without
        re-arming, and runs no callback."""
        self.at = float("-inf")
        self.callbacks = []

    def _arm(self, delay: float) -> None:
        self._processed = False
        self.engine.timeout(delay).callbacks.append(self._on_timer)

    def _on_timer(self, _timer: Event) -> None:
        now = self.engine.now
        if now < self.at:
            self._arm(self.at - now)
            return
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class _RecvRace:
    """A blocked receive's race against the epoch abort event and a
    :class:`Deadline`: one callback on each while the receive waits,
    taken off when it ends (like ``runtime.daemons._Race``)."""

    __slots__ = ("box", "get", "sources", "open")

    def __init__(self, box: Store, get: Event, sources: tuple) -> None:
        self.box = box
        self.get = get
        self.sources = sources = [s for s in sources if s is not None]
        self.open = True
        for source in sources:
            if source._processed:
                self._on_fire(source)
            else:
                source.callbacks.append(self._on_fire)

    def _on_fire(self, source: Any) -> None:
        # Decide one zero-delay hop later: a message matched in this same
        # instant still wins, as a matched MPI receive completes.
        hop = Event(self.get.engine)
        hop.callbacks.append(lambda _hop: self._decide(source))
        hop.succeed()

    def _decide(self, source: Any) -> None:
        if self.open and not self.get._triggered:
            self.box.cancel(self.get)
            self.get.fail(_Lost(source))

    def end(self) -> None:
        self.open = False
        for source in self.sources:
            if not source._processed:
                source.callbacks.remove(self._on_fire)


#: payload types a single machine word (8 bytes) is charged for, matched
#: by exact type on the fast path: Python's numeric builtins and every
#: concrete NumPy scalar type except the string/bytes ones (those are
#: ``str``/``bytes`` subclasses and are sized by length instead)
_WORD_TYPES = frozenset(
    t
    for t in (bool, int, float, complex, *np.sctypeDict.values())
    if not issubclass(t, (str, bytes))
)

#: container term of one word-sized item: its word plus the 8.0 framing
_WORD_ITEM = 8.0 + 8.0

_INF = float("inf")

#: nesting levels :func:`_walk_nbytes` sizes before it hands back
_WALK_LEVELS = 4

#: below this, sums of whole-byte float terms are exact
_EXACT = float(1 << 53)


def payload_nbytes(obj: Any) -> float:
    """Wire-size estimate (bytes) of a message payload.

    NumPy arrays report their exact buffer size; containers are summed
    recursively with a small per-item framing overhead; scalars cost a
    machine word.  This mirrors what mpi4py's buffer path would move.

    The common types (``list``/``tuple``, ``ndarray``, numeric scalars)
    are dispatched on their exact type, and a list or tuple whose leaves
    are words, arrays and strings is sized in one loop with no call per
    item (:func:`_walk_nbytes`); everything else (subclasses, dicts,
    sets, bytes, objects with an ``nbytes`` attribute) takes the general
    ``isinstance`` path.  Container sizes equal ``sum`` over the same
    per-item terms in item order, so an empty container sizes as ``int``
    0.  Raises :class:`ValueError` naming the payload type when a size is
    negative, NaN or infinite.
    """
    nbytes = _nbytes(obj)
    if not 0 <= nbytes < _INF:  # also rejects NaN
        raise ValueError(
            f"payload {type(obj).__name__} has invalid size {nbytes!r}"
        )
    return nbytes


def _nbytes(obj: Any) -> float:
    t = type(obj)
    if t is list or t is tuple:
        size = _walk_nbytes(obj)
        if size is not None:
            return size
        return sum([
            _WORD_ITEM if type(item) in _WORD_TYPES else _nbytes(item) + 8.0
            for item in obj
        ])
    if t in _WORD_TYPES:
        return 8.0
    if t is np.ndarray:
        return float(obj.nbytes)
    if obj is None:
        return 0.0
    return _nbytes_general(obj)


def _walk_nbytes(obj: list | tuple) -> float | None:
    """Size of *obj* in one loop over its nesting levels, or None.

    Covers lists and tuples nested at most ``_WALK_LEVELS`` deep whose
    leaves are words, arrays and strings (a bucket of ``(key, (array,
    word))`` pairs is three levels).  Every term is then a whole number
    of bytes, so while the running total stays below 2**53 each addition
    is exact and the total equals the recursive ``sum`` of per-item
    terms, whatever the order.  Any other payload returns None and is
    sized recursively.
    """
    total = 0
    level = [obj]
    for _ in range(_WALK_LEVELS):
        below = []
        for container in level:
            for item in container:
                t = type(item)
                if t in _WORD_TYPES:
                    total += _WORD_ITEM
                elif t is tuple or t is list:
                    total += 8.0
                    below.append(item)
                elif t is np.ndarray:
                    total += item.nbytes + 8.0
                elif t is str:
                    total += len(item.encode("utf-8")) + 8.0
                else:
                    return None
        if not below:
            return total if total < _EXACT else None
        level = below
    return None


def _nbytes_general(obj: Any) -> float:
    if isinstance(obj, np.ndarray):
        return float(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return float(len(obj))
    if isinstance(obj, str):
        return float(len(obj.encode("utf-8")))
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 8.0
    if isinstance(obj, dict):
        return sum(_nbytes(k) + _nbytes(v) + 8.0 for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_nbytes(item) + 8.0 for item in obj)
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, float)):
        if not 0 <= nbytes < _INF:  # also rejects NaN
            raise ValueError(
                f"payload {type(obj).__name__} has invalid size {nbytes!r}"
            )
        return float(nbytes)
    return _DEFAULT_OBJECT_BYTES


class World:
    """The communicator group: ``size`` ranks over one network spec.

    Parameters
    ----------
    engine:
        The DES engine all ranks run on.
    size:
        Number of ranks.
    network:
        Interconnect parameters; defaults to a fast LAN.
    node_of:
        Optional mapping from rank to physical node index; ranks on the
        same node exchange messages for free.  Defaults to one rank per
        node.
    trace:
        The run's :class:`Trace`: each delivered message leaves a send
        span, a paired recv span and the comm counters in it.
    """

    def __init__(
        self,
        engine: Engine,
        size: int,
        network: NetworkSpec | None = None,
        node_of: Callable[[int], int] | None = None,
        *,
        trace: Trace,
    ) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.engine = engine
        self.size = size
        self.network = network if network is not None else NetworkSpec()
        self.node_of = node_of if node_of is not None else (lambda rank: rank)
        self.trace = trace
        if trace.sampler is not None:
            # Declare the α/β wire model of the inter-node link so the
            # sampler can derive offered-load and observed-vs-model
            # series (rank-local messages are free: no model to watch).
            trace.sampler.register_link_model(
                "remote",
                latency_s=self.network.latency,
                bytes_per_s=self.network.bandwidth * 1e9,
            )
        self._mailboxes: dict[tuple[int, int, int], Store] = {}
        #: (src, dst, tag class, link) -> bound message and byte counters
        self._message_counters: dict[
            tuple[int, int, str, str], tuple[obs.CounterChild, obs.CounterChild]
        ] = {}
        #: aggregate message accounting for reports
        self.messages_sent = 0
        self.bytes_sent = 0.0
        #: fault-tolerance wiring (None/absent in fault-free runs); set via
        #: :meth:`attach_faults` by the driver.
        self.faults = None
        self.abort_event: Event | None = None
        #: live (dest_rank, src_rank, tag) -> count of blocked receives;
        #: reported when the engine drains with a process still waiting,
        #: turning a silent deadlock into a named one.
        self._blocked: dict[tuple[int, int, int], int] = {}
        engine.diagnostics.append(self._blocked_report)

    def attach_faults(
        self, faults: Any, abort_event: Event | None = None
    ) -> None:
        """Wire fault injection into this world's message path."""
        self.faults = faults
        self.abort_event = abort_event

    def _bind_message_counters(
        self, src: int, dest: int, tagc: str, link: str
    ) -> tuple[obs.CounterChild, obs.CounterChild]:
        """The ``{src, dst, tag, link}`` message and byte counters of one
        rank pair and tag class, bound once per world."""
        metrics = self.trace.metrics
        labels = dict(src=f"r{src}", dst=f"r{dest}", tag=tagc, link=link)
        counters = self._message_counters[src, dest, tagc, link] = (
            metrics.counter_child(obs.COMM_MESSAGES, **labels),
            metrics.counter_child(obs.COMM_BYTES, **labels),
        )
        return counters

    def _blocked_report(self) -> str | None:
        pairs = sorted(key for key, n in self._blocked.items() if n > 0)
        if not pairs:
            return None
        detail = ", ".join(
            f"rank {dest} <- rank {src} (tag {tag})"
            for dest, src, tag in pairs
        )
        return f"blocked recv with no matching sender: {detail}"

    def comm(self, rank: int) -> "RankComm":
        """The per-rank handle for *rank*."""
        require_nonnegative_int("rank", rank)
        if rank >= self.size:
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return RankComm(self, rank)

    # ------------------------------------------------------------------
    def _mailbox(self, dest: int, src: int, tag: int) -> Store:
        key = (dest, src, tag)
        box = self._mailboxes.get(key)
        if box is None:
            box = Store(self.engine, name=f"mbox{key}")
            self._mailboxes[key] = box
        return box

    def wire_time(self, src: int, dest: int, nbytes: float) -> float:
        """Seconds for *nbytes* from rank *src* to rank *dest*."""
        if self.node_of(src) == self.node_of(dest):
            return 0.0
        return self.network.point_to_point_time(nbytes)


class RankComm:
    """One rank's view of the world (mirrors a tiny slice of mpi4py)."""

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank

    @property
    def size(self) -> int:
        return self.world.size

    @property
    def engine(self) -> Engine:
        return self.world.engine

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(
        self, payload: Any, dest: int, tag: int = 0,
        nbytes: float | None = None,
    ) -> Generator[Event, Any, None]:
        """Eager send: charge the wire time, then deposit at *dest*.

        *nbytes* is the payload's :func:`payload_nbytes` when the caller
        already sized it (the shuffle does); ``None`` sizes it here.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range")
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        elif not 0 <= nbytes < _INF:  # also rejects NaN
            raise ValueError(
                f"send r{self.rank}->r{dest}: payload {type(payload).__name__} "
                f"has invalid size {nbytes!r}"
            )
        first_start = self.engine.now
        start = first_start
        world = self.world
        trace = world.trace
        faults = world.faults
        src_node = world.node_of(self.rank)
        dest_node = world.node_of(dest)
        same_node = src_node == dest_node
        retransmits = 0
        while True:
            if not same_node:
                delay = world.wire_time(self.rank, dest, nbytes)
                if faults is not None and delay > 0:
                    delay *= faults.net_scale(self.engine.now)
                if delay > 0:
                    yield self.engine.timeout(delay)
            if (
                faults is not None
                and not same_node
                and faults.consume_drop(src_node, dest_node, start)
            ):
                # The message was lost in flight: wait out the retransmit
                # timer and pay the wire again.
                retransmits += 1
                trace.metrics.counter(obs.COMM_RETRANSMITS).inc(
                    1, src=f"r{self.rank}"
                )
                trace.log.warning(
                    "comm",
                    f"message r{self.rank}->r{dest} t{tag} dropped; "
                    f"retransmit {retransmits}",
                    t=self.engine.now,
                    rank=trace.rank_of(f"net.r{self.rank}"),
                    src=self.rank,
                    dst=dest,
                    nbytes=nbytes,
                )
                yield self.engine.timeout(faults.policy.retransmit_timeout_s)
                start = self.engine.now
                continue
            break
        delay_s = 0.0
        if faults is not None and not same_node:
            delay_s = faults.msg_delay(src_node, dest_node, start)
            if delay_s > 0:
                yield self.engine.timeout(delay_s)
        # Host-profiling note: the delivery tail below never yields, so a
        # wall-clock scope here cannot span simulated suspension — it
        # meters exactly the bookkeeping this rank does for one message.
        prof = trace.selfprof
        prof.begin("comm:deliver")
        try:
            msg_id = trace.next_msg_id()
            link = "local" if same_node else "remote"
            tagc = describe_tag(tag)
            # One send span per *delivered* message, covering the whole
            # delivery effort (retransmit timers and fault delays
            # included), so its end is the instant the payload becomes
            # visible at the destination.  The matched receive span
            # carries the same msg_id.
            attrs: dict[str, Any] = {
                "msg_id": msg_id,
                "src": self.rank,
                "dst": dest,
                "src_node": src_node,
                "dst_node": dest_node,
                "tag": tag,
                "tagc": tagc,
                "link": link,
                # Fault-free analytic wire time (alpha + n * beta): the
                # observed-vs-predicted ratio exposes contention,
                # degradation windows, and retransmit storms per message.
                "pred_s": world.wire_time(self.rank, dest, nbytes),
            }
            if retransmits:
                attrs["retransmits"] = retransmits
            if delay_s > 0:
                attrs["delay_s"] = delay_s
            trace.record(
                f"msg r{self.rank}->r{dest} t{tag}",
                f"net.r{self.rank}",
                "net",
                first_start,
                self.engine.now,
                nbytes=nbytes,
                attrs=attrs,
            )
            counters = world._message_counters.get((self.rank, dest, tagc, link))
            if counters is None:
                counters = world._bind_message_counters(self.rank, dest, tagc, link)
            counters[0].inc(1)
            counters[1].inc(nbytes)
            if not same_node:
                # Slow-delivery narration: observed delivery at or beyond
                # 2x the analytic α/β wire time — the same 2.0 factor the
                # link-over-utilization alert rule uses, so an alert's
                # flight dump carries the per-message WARNs that explain
                # it.
                pred_s = attrs["pred_s"]
                actual_s = self.engine.now - first_start
                if pred_s > 0 and actual_s >= 2.0 * pred_s:
                    trace.log.warning(
                        "comm",
                        f"slow delivery r{self.rank}->r{dest} t{tag}: "
                        f"{actual_s:.3g}s vs predicted {pred_s:.3g}s",
                        t=self.engine.now,
                        rank=trace.rank_of(f"net.r{self.rank}"),
                        msg_id=msg_id,
                        nbytes=nbytes,
                        ratio=round(actual_s / pred_s, 3),
                    )
            world.messages_sent += 1
            world.bytes_sent += nbytes
            world._mailbox(dest, self.rank, tag).put(
                _Envelope(
                    payload=payload,
                    msg_id=msg_id,
                    src=self.rank,
                    nbytes=nbytes,
                    sent_at=first_start,
                    retransmits=retransmits,
                    delay_s=delay_s,
                )
            )
        finally:
            prof.end()

    def recv(
        self, source: int, tag: int = 0, deadline: Deadline | None = None
    ) -> Generator[Event, Any, Any]:
        """Blocking receive of the next message from (*source*, *tag*).

        When the world carries an epoch abort event the wait unwinds with
        :class:`EpochAborted` once it fires; a *deadline* ends it with
        :class:`CommTimeout` when its window expires.  Either decides one
        zero-delay hop after it fires, so a message matched in that
        instant still wins.
        """
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range")
        world = self.world
        box = world._mailbox(self.rank, source, tag)
        key = (self.rank, source, tag)
        entered = self.engine.now
        world._blocked[key] = world._blocked.get(key, 0) + 1
        get = box.get()
        race = None
        if not get._triggered and (world.abort_event or deadline):
            race = _RecvRace(box, get, (world.abort_event, deadline))
        try:
            payload = yield get
        except _Lost as lost:
            if lost.args[0] is not deadline:
                raise EpochAborted(lost.args[0].value) from None
            trace = world.trace
            now = self.engine.now
            trace.metrics.counter(obs.COMM_TIMEOUTS).inc(
                1, rank=f"r{self.rank}"
            )
            trace.record_recv(
                f"recv r{source}->r{self.rank} t{tag} timeout",
                f"net.r{self.rank}",
                entered,
                now,
                attrs={
                    "src": source,
                    "dst": self.rank,
                    "tag": tag,
                    "tagc": describe_tag(tag),
                    "timeout": True,
                    "wait_s": now - entered,
                },
            )
            trace.log.warning(
                "comm",
                f"recv r{source}->r{self.rank} t{tag} timed out "
                f"after {deadline.window:.3g}s",
                t=now,
                rank=trace.rank_of(f"net.r{self.rank}"),
                src=source,
                tag=describe_tag(tag),
            )
            raise CommTimeout(self.rank, source, tag, deadline.window) from None
        except BaseException:
            if not get._triggered:
                box.cancel(get)
            elif not get._ok:  # a loss decided but not yet delivered
                get.callbacks.append(lambda _get: None)
            raise
        finally:
            if race is not None:
                race.end()
            world._blocked[key] -= 1
            if not world._blocked[key]:
                del world._blocked[key]
        return self._finish_recv(payload, tag, entered)

    def _finish_recv(self, raw: _Envelope, tag: int, entered: float) -> Any:
        """Unwrap a mailbox item, recording the paired ``recv`` span.

        The span covers the receiver's actual wait (call entry to message
        arrival) and carries the sender's ``msg_id`` so analysis can pair
        it 1:1 with the matching send span.  It is bookkeeping only —
        tracer-level, never a :class:`~repro.simulate.trace.TaskRecord` —
        so busy-time counters, utilization, and schedules are untouched.
        """
        world = self.world
        trace = world.trace
        prof = trace.selfprof
        prof.begin("comm:recv")
        try:
            now = self.engine.now
            attrs: dict[str, Any] = {
                "msg_id": raw.msg_id,
                "src": raw.src,
                "dst": self.rank,
                "src_node": world.node_of(raw.src),
                "dst_node": world.node_of(self.rank),
                "tag": tag,
                "tagc": describe_tag(tag),
                "nbytes": raw.nbytes,
                "sent_at": raw.sent_at,
                "wait_s": now - entered,
            }
            if raw.retransmits:
                attrs["retransmits"] = raw.retransmits
            if raw.delay_s > 0:
                attrs["delay_s"] = raw.delay_s
            trace.record_recv(
                f"recv r{raw.src}->r{self.rank} t{tag}",
                f"net.r{self.rank}",
                entered,
                now,
                attrs=attrs,
            )
        finally:
            prof.end()
        return raw.payload

    # ------------------------------------------------------------------
    # Collectives (built from send/recv)
    # ------------------------------------------------------------------
    def _vrank(self, rank: int, root: int) -> int:
        return (rank - root) % self.size

    def _rrank(self, vrank: int, root: int) -> int:
        return (vrank + root) % self.size

    def bcast(
        self, payload: Any, root: int = 0, tag: int = -1
    ) -> Generator[Event, Any, Any]:
        """Binomial-tree broadcast; every rank returns the payload.

        The classic MPICH algorithm: a non-root rank receives from the
        parent that differs in its highest relevant bit, then forwards to
        the ranks below it in the tree.
        """
        me = self._vrank(self.rank, root)
        size = self.size
        if size == 1:
            return payload
        mask = 1
        while mask < size:
            if me & mask:
                parent = self._rrank(me - mask, root)
                payload = yield from self.recv(parent, tag)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if me + mask < size:
                yield from self.send(payload, self._rrank(me + mask, root), tag)
            mask >>= 1
        return payload

    def gather(
        self, payload: Any, root: int = 0, tag: int = -4
    ) -> Generator[Event, Any, Any]:
        """Linear gather: root returns the rank-ordered list, others None."""
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = payload
            for src in range(self.size):
                if src == root:
                    continue
                out[src] = yield from self.recv(src, tag)
            return out
        yield from self.send(payload, root, tag)
        return None

    def scatter(
        self, payloads: list[Any] | None, root: int = 0, tag: int = -5
    ) -> Generator[Event, Any, Any]:
        """Linear scatter: each rank returns its slot of root's list."""
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise ValueError(
                    f"root must pass exactly {self.size} payloads"
                )
            for dest in range(self.size):
                if dest == root:
                    continue
                yield from self.send(payloads[dest], dest, tag)
            return payloads[root]
        item = yield from self.recv(root, tag)
        return item

    def alltoall(
        self,
        payloads: list[Any],
        tag: int = -8,
        nbytes: Sequence[float] | None = None,
    ) -> Generator[Event, Any, list[Any]]:
        """Personalized all-to-all: rank ``i`` sends ``payloads[j]`` to
        rank ``j`` and returns the list of what every rank sent *it*.

        This is the PRS shuffle primitive ("the PRS scheduler shuffles all
        intermediate key/value pairs across the cluster").  The exchange
        uses the standard pairwise pattern: in round ``r`` each rank
        exchanges with ``rank XOR r`` — ``P-1`` rounds, no root hotspot.
        *nbytes*, when given, holds each payload's precomputed
        :func:`payload_nbytes`, so no payload is sized twice.
        """
        if len(payloads) != self.size:
            raise ValueError(
                f"alltoall needs exactly {self.size} payloads, got "
                f"{len(payloads)}"
            )
        if nbytes is not None and len(nbytes) != self.size:
            raise ValueError(
                f"alltoall needs exactly {self.size} payload sizes, got "
                f"{len(nbytes)}"
            )
        result: list[Any] = [None] * self.size
        result[self.rank] = payloads[self.rank]
        size = self.size
        # Pad the round count to the next power of two so XOR pairing is a
        # valid permutation; partners >= size simply skip the round.
        rounds = 1
        while rounds < size:
            rounds <<= 1
        for r in range(1, rounds):
            partner = self.rank ^ r
            if partner >= size:
                continue
            # Deterministic order avoids send/recv deadlock-shaped waits:
            # lower rank sends first (sends are eager so either order
            # completes, but fixed order keeps timing reproducible).
            out = payloads[partner]
            out_nbytes = None if nbytes is None else nbytes[partner]
            if self.rank < partner:
                yield from self.send(out, partner, tag + r, out_nbytes)
                result[partner] = yield from self.recv(partner, tag + r)
            else:
                result[partner] = yield from self.recv(partner, tag + r)
                yield from self.send(out, partner, tag + r, out_nbytes)
        return result


def heartbeat_sender(
    comm: "RankComm", dests: list[int], interval: float
) -> Generator[Event, Any, None]:
    """Beat every *interval* seconds to each rank in *dests* until
    interrupted (the owning worker kills it in its cleanup path)."""
    trace = comm.world.trace
    beats = trace.metrics.counter_child(obs.COMM_HEARTBEATS, src=f"r{comm.rank}")
    try:
        while True:
            yield comm.engine.timeout(interval)
            for dest in dests:
                yield from comm.send(
                    ("hb", comm.rank), dest, HEARTBEAT_TAG
                )
                beats.inc(1)
                log = trace.log
                if log.wants_debug:
                    log.debug(
                        "comm",
                        f"heartbeat r{comm.rank}->r{dest}",
                        t=comm.engine.now,
                        rank=trace.rank_of(f"net.r{comm.rank}"),
                    )
    except Interrupt:
        return


def heartbeat_monitor(
    comm: "RankComm",
    source: int,
    timeout: float,
    abort_event: Event,
    missed_windows: int,
) -> Generator[Event, Any, None]:
    """Consume heartbeats from *source*; after *missed_windows*
    consecutive missed windows (each *timeout* long), fire the epoch's
    global abort event (once) and exit.  Any beat received resets the
    miss counter (``FaultPolicy.heartbeat_missed_windows`` threads the
    knob through).  Every beat or missed window opens the next window
    of one :class:`Deadline`, closed when the monitor exits."""
    deadline = Deadline(comm.engine, timeout)
    misses = 0
    try:
        while True:
            try:
                yield from comm.recv(source, HEARTBEAT_TAG, deadline)
                misses = 0
            except CommTimeout:
                misses += 1
            if misses < missed_windows:
                deadline.restart()
                continue
            trace = comm.world.trace
            trace.log.error(
                "comm",
                f"rank r{source} silent for {misses} heartbeat "
                f"window(s); declaring dead",
                t=comm.engine.now,
                rank=trace.rank_of(f"net.r{comm.rank}"),
                peer=source,
                window_s=timeout,
            )
            if not abort_event.triggered:
                abort_event.succeed(("rank-silent", source))
            return
    except (EpochAborted, Interrupt):
        return
    finally:
        deadline.close()


def spawn_heartbeats(
    world: "World",
    policy: Any,
    abort_event: Event,
    node_of_rank: Sequence[int],
) -> list[tuple[int, Any]]:
    """Wire the epoch's heartbeat layer over a (re)sized communicator.

    Every worker beats to the master and the master beats back; a
    monitor on each side declares a silent peer dead by firing
    *abort_event*.  Called by the fault-tolerant/elastic driver once per
    epoch — after a communicator resize (rank death, join, drain) this
    is the "heartbeat re-registration" step: monitors are rebuilt for
    exactly the current live rank numbering.

    *node_of_rank* maps comm rank -> physical pool node (for process
    bookkeeping); *policy* supplies ``heartbeat_interval_s``,
    ``heartbeat_miss_factor`` and ``heartbeat_missed_windows``.
    Returns ``(node_index, process)`` pairs so the caller can register
    them for rank-kill delivery and interrupt them at epoch end.
    """
    engine = world.engine
    interval = policy.heartbeat_interval_s
    hb_timeout = interval * policy.heartbeat_miss_factor
    windows = policy.heartbeat_missed_windows
    hb_procs: list[tuple[int, Any]] = []
    for rank in range(world.size):
        comm = world.comm(rank)
        node = node_of_rank[rank]
        peers = list(range(1, world.size)) if rank == 0 else [0]
        hb_procs.append((node, engine.process(
            heartbeat_sender(comm, peers, interval), name=f"hb-send.r{rank}"
        )))
        for peer in peers:
            hb_procs.append((node, engine.process(
                heartbeat_monitor(comm, peer, hb_timeout, abort_event, windows),
                name=f"hb-mon.r{rank}.{peer}",
            )))
    return hb_procs


def run_spmd(
    world: World,
    main: Callable[[RankComm], Generator[Event, Any, Any]],
) -> list[Any]:
    """Launch *main(comm)* as one DES process per rank and run to completion.

    Returns the per-rank return values in rank order — the simulated
    equivalent of ``mpiexec -n SIZE python script.py``.
    """
    engine = world.engine
    procs = [
        engine.process(main(world.comm(rank)), name=f"rank{rank}")
        for rank in range(world.size)
    ]
    return list(engine.run(engine.all_of(procs)))
