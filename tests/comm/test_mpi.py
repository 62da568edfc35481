"""Tests for the simulated MPI communicator: semantics and timing."""

import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.comm.mpi import (
    HEARTBEAT_TAG,
    CommTimeout,
    Deadline,
    EpochAborted,
    World,
    heartbeat_monitor,
    payload_nbytes,
    run_spmd,
)
from repro.hardware.cluster import NetworkSpec
from repro.obs import COMM_RETRANSMITS, COMM_TIMEOUTS
from repro.runtime.recovery import FaultPolicy
from repro.simulate.engine import Engine, SimulationError
from repro.simulate.faults import FaultPlan, FaultState
from repro.simulate.trace import Trace
from tests.comm.network_model import NetworkModel


def make_world(size, latency=0.0, bandwidth=1.0, same_node=False):
    net = NetworkSpec(latency=latency, bandwidth=bandwidth)
    node_of = (lambda r: 0) if same_node else (lambda r: r)
    return World(Engine(), size, network=net, node_of=node_of, trace=Trace())


_ORACLE_WORDS = frozenset(
    t
    for t in (bool, int, float, complex, *np.sctypeDict.values())
    if not issubclass(t, (str, bytes))
)


def _recursive_payload_nbytes(obj):
    """Oracle: ``payload_nbytes`` sized recursively, one call per nested
    item.  The sizer must equal it in value, type, float bits (summation
    order) and error message."""
    nbytes = _recursive_nbytes(obj)
    if not 0 <= nbytes < float("inf"):
        raise ValueError(
            f"payload {type(obj).__name__} has invalid size {nbytes!r}"
        )
    return nbytes


def _recursive_nbytes(obj):
    t = type(obj)
    if t is list or t is tuple:
        return sum([
            16.0 if type(item) in _ORACLE_WORDS
            else _recursive_nbytes(item) + 8.0
            for item in obj
        ])
    if t in _ORACLE_WORDS:
        return 8.0
    if t is np.ndarray:
        return float(obj.nbytes)
    if obj is None:
        return 0.0
    if isinstance(obj, np.ndarray):
        return float(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return float(len(obj))
    if isinstance(obj, str):
        return float(len(obj.encode("utf-8")))
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 8.0
    if isinstance(obj, dict):
        return sum(
            _recursive_nbytes(k) + _recursive_nbytes(v) + 8.0
            for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_recursive_nbytes(item) + 8.0 for item in obj)
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, float)):
        if not 0 <= nbytes < float("inf"):
            raise ValueError(
                f"payload {type(obj).__name__} has invalid size {nbytes!r}"
            )
        return float(nbytes)
    return 64.0


class Sized:
    """An opaque payload that reports its own ``nbytes``."""

    def __init__(self, nbytes):
        self.nbytes = nbytes

    def __repr__(self):
        return f"Sized({self.nbytes!r})"


Pair = namedtuple("Pair", "key value")

_DTYPES = ["float64", "float32", "int64", "int8", "complex128", "bool"]

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True),
    st.complex_numbers(allow_nan=False),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.sampled_from(_DTYPES).map(lambda dt: np.zeros(1, dtype=dt)[0]),
    st.sampled_from(["ab", "\u00e9"]).map(np.str_),
)

_LEAVES = st.one_of(
    _SCALARS,
    st.tuples(st.sampled_from(_DTYPES), st.integers(0, 5)).map(
        lambda a: np.zeros(a[1], dtype=a[0])
    ),
    # fractional and huge sizes make the float sum order-sensitive
    st.one_of(
        st.integers(0, 1 << 60),
        st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False),
    ).map(Sized),
    st.just(object()),
)

_HASHABLE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(allow_nan=False),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.tuples(children, children).map(lambda kv: Pair(*kv)),
        st.dictionaries(_HASHABLE, children, max_size=4),
        st.sets(_HASHABLE, max_size=4),
        st.frozensets(_HASHABLE, max_size=4),
    )


class TestPayloadNbytes:
    def test_numpy_exact(self):
        assert payload_nbytes(np.zeros(100, dtype=np.float64)) == 800.0

    def test_none_free(self):
        assert payload_nbytes(None) == 0.0

    def test_scalars(self):
        assert payload_nbytes(3) == 8.0
        assert payload_nbytes(2.5) == 8.0

    def test_containers_sum(self):
        arr = np.zeros(10, dtype=np.float32)  # 40 bytes
        assert payload_nbytes([arr, arr]) == pytest.approx(40 * 2 + 16)

    def test_string_utf8(self):
        assert payload_nbytes("abc") == 3.0

    def test_dict(self):
        assert payload_nbytes({"a": 1}) > 8.0

    def test_empty_container_is_int_zero(self):
        # sum() of no terms: the shuffle phase attrs carry this int
        for empty in ([], (), {}, set()):
            size = payload_nbytes(empty)
            assert size == 0 and type(size) is int

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1, -0.5])
    def test_invalid_nbytes_attribute_raises(self, bad):
        with pytest.raises(ValueError, match=rf"Sized\b.*{bad!r}"):
            payload_nbytes(Sized(bad))
        with pytest.raises(ValueError, match=rf"Sized\b.*{bad!r}"):
            payload_nbytes([1, (Sized(bad), 2.0)])

    def test_overflowing_sum_raises(self):
        with pytest.raises(ValueError, match=r"list\b.*inf"):
            payload_nbytes([Sized(1e308), Sized(1e308)])

    @given(st.recursive(_LEAVES, _containers, max_leaves=25))
    @example([Sized(1e16), Sized(1.0), (Sized(1.0), 2.5)])  # order-sensitive
    @settings(max_examples=300, deadline=None)
    def test_matches_recursive_reference(self, payload):
        # Same value, same type, same float bits (summation order).
        got, want = payload_nbytes(payload), _recursive_payload_nbytes(payload)
        assert type(got) is type(want)
        assert repr(got) == repr(want)


class Pairs(list):
    """A list subclass: sized on the general path, not the walk."""


_ARR = np.arange(6, dtype=np.float64)

#: payloads of every shape the walk handles or hands back
_WALK_PAYLOADS = [
    [(j, (_ARR, float(j))) for j in range(5)] + [("objective", 1.5)],
    [(m, (1.0, _ARR, _ARR.reshape(2, 3))) for m in range(3)],
    [((0, 16), _ARR.astype(np.float32))],
    [[[[1, 2], (3.0, [4])]]],
    [[[[[[1]]]]]],  # deeper than the walk goes
    ([], (), [()], ([], [[]])),
    [], (), {}, set(), frozenset(),
    [np.float32(1.5), np.int8(3), np.bool_(True), np.complex64(1j)],
    np.float64(2.5),
    b"bytes", [b"ab", bytearray(b"c"), memoryview(b"def")],
    "caf\u00e9", ["", "\u00e9", np.str_("ab")],
    {"a": 1, 2: (_ARR, "x")}, [{"k": [1.0]}],
    {1, 2.5, "s"}, [frozenset({1})],
    None, [None, (None,)],
    Pairs([(1, 2.0)]), [Pairs([(1, _ARR)])],
    Sized(12), [Sized(0.5), 1, (Sized(1e16), 1.0)],
    [object(), (1, object())],
    # a 2**56-byte view: past 2**53 the sum rounds, so order matters
    [(1, 1), (np.broadcast_to(np.float64(0), (1 << 53,)),), 1, 1, 1],
]


class TestWalkedSizes:
    @pytest.mark.parametrize(
        "payload", _WALK_PAYLOADS, ids=range(len(_WALK_PAYLOADS))
    )
    def test_equals_recursive_sizing(self, payload):
        got, want = payload_nbytes(payload), _recursive_payload_nbytes(payload)
        assert type(got) is type(want)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize(
        "payload",
        [
            Sized(-1),
            [1, (Sized(float("nan")), 2.0)],
            [(0, (_ARR, Sized(float("inf"))))],
            [Sized(1e308), (Sized(1e308),)],
        ],
    )
    def test_invalid_sizes_raise_the_same_message(self, payload):
        with pytest.raises(ValueError) as want:
            _recursive_payload_nbytes(payload)
        with pytest.raises(ValueError) as got:
            payload_nbytes(payload)
        assert str(got.value) == str(want.value)


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        world = make_world(2)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send({"x": 7}, dest=1, tag=5)
                return None
            msg = yield from comm.recv(source=0, tag=5)
            return msg

        assert run_spmd(world, main)[1] == {"x": 7}

    def test_recv_without_sender_names_blocked_pair(self):
        # A silent hang must not stay silent: when the event queue drains
        # with a receive still posted, the deadlock error reports exactly
        # which (rank, tag) pairs are blocked and on whom.
        world = make_world(2)

        def main(comm):
            if comm.rank == 1:
                yield from comm.recv(source=0, tag=42)  # nobody sends
            return None

        with pytest.raises(SimulationError) as excinfo:
            run_spmd(world, main)
        message = str(excinfo.value)
        assert "deadlock" in message
        assert "rank 1 <- rank 0 (tag 42)" in message

    def test_wire_time_charged(self):
        world = make_world(2, latency=1e-3, bandwidth=1.0)

        def main(comm):
            data = np.zeros(125_000_000, dtype=np.float64)  # 1e9 bytes
            if comm.rank == 0:
                yield from comm.send(data, dest=1)
            else:
                yield from comm.recv(source=0)
            return comm.engine.now

        results = run_spmd(world, main)
        assert results[1] == pytest.approx(1.0 + 1e-3)

    def test_same_node_messages_free(self):
        world = make_world(2, latency=1.0, bandwidth=1e-9, same_node=True)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(1000), dest=1)
            else:
                yield from comm.recv(source=0)
            return comm.engine.now

        assert run_spmd(world, main)[1] == 0.0

    def test_same_node_bypasses_nic(self):
        """A co-located sender's message lands at once even while a
        1 GB cross-node message into the same rank is on the wire."""
        net = NetworkSpec(latency=0.0, bandwidth=1.0)
        world = World(
            Engine(), 3, network=net, node_of=lambda r: r // 2, trace=Trace()
        )

        def main(comm):
            if comm.rank == 0:
                yield from comm.recv(source=1)
                local = comm.engine.now
                yield from comm.recv(source=2)
                return local, comm.engine.now
            yield from comm.send(Sized(1e9), dest=0)
            return None

        local, remote = run_spmd(world, main)[0]
        assert local == 0.0
        assert remote == pytest.approx(1.0)

    def test_messages_into_one_rank_overlap(self):
        """Messages to one destination do not queue at its NIC: seven
        simultaneous 1 GB sends into rank 0 over 1 GB/s links all land
        after one wire time, as the alpha/beta model charges them."""
        world = make_world(8)

        def main(comm):
            if comm.rank == 0:
                for src in range(1, comm.size):
                    yield from comm.recv(source=src)
            else:
                yield from comm.send(Sized(1e9), dest=0)
            return comm.engine.now

        assert run_spmd(world, main)[0] == pytest.approx(1.0, rel=0.01)

    def test_non_overtaking_order(self):
        world = make_world(2)

        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    yield from comm.send(i, dest=1, tag=1)
                return None
            got = []
            for _ in range(5):
                item = yield from comm.recv(source=0, tag=1)
                got.append(item)
            return got

        assert run_spmd(world, main)[1] == [0, 1, 2, 3, 4]

    def test_tags_isolate_streams(self):
        world = make_world(2)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send("a", dest=1, tag=1)
                yield from comm.send("b", dest=1, tag=2)
                return None
            second = yield from comm.recv(source=0, tag=2)
            first = yield from comm.recv(source=0, tag=1)
            return (first, second)

        assert run_spmd(world, main)[1] == ("a", "b")

    def test_rank_bounds_checked(self):
        world = make_world(2)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, dest=9)
            return None
            yield  # pragma: no cover

        with pytest.raises(ValueError, match="dest"):
            run_spmd(world, main)


class TestCollectives:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 13])
    def test_bcast_reaches_everyone(self, size):
        world = make_world(size)

        def main(comm):
            data = "payload" if comm.rank == 0 else None
            result = yield from comm.bcast(data, root=0)
            return result

        assert run_spmd(world, main) == ["payload"] * size

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_bcast_nonzero_root(self, root):
        world = make_world(4)

        def main(comm):
            data = comm.rank if comm.rank == root else None
            result = yield from comm.bcast(data, root=root)
            return result

        assert run_spmd(world, main) == [root] * 4

    @pytest.mark.parametrize("size", [1, 2, 3, 6])
    def test_gather_ordered(self, size):
        world = make_world(size)

        def main(comm):
            result = yield from comm.gather(comm.rank * 10)
            return result

        results = run_spmd(world, main)
        assert results[0] == [r * 10 for r in range(size)]

    @pytest.mark.parametrize("size", [1, 2, 4, 5])
    def test_scatter_delivers_slots(self, size):
        world = make_world(size)

        def main(comm):
            data = [f"item{i}" for i in range(size)] if comm.rank == 0 else None
            result = yield from comm.scatter(data)
            return result

        assert run_spmd(world, main) == [f"item{i}" for i in range(size)]

    def test_scatter_validates_length(self):
        world = make_world(3)

        def main(comm):
            data = [1, 2] if comm.rank == 0 else None
            result = yield from comm.scatter(data)
            return result

        with pytest.raises(ValueError, match="payloads"):
            run_spmd(world, main)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8])
    def test_alltoall_personalized_exchange(self, size):
        world = make_world(size)

        def main(comm):
            outgoing = [f"{comm.rank}->{dest}" for dest in range(size)]
            incoming = yield from comm.alltoall(outgoing)
            return incoming

        results = run_spmd(world, main)
        for dest, incoming in enumerate(results):
            assert incoming == [f"{src}->{dest}" for src in range(size)]

    def test_alltoall_validates_length(self):
        world = make_world(3)

        def main(comm):
            result = yield from comm.alltoall([1, 2])
            return result

        with pytest.raises(ValueError, match="alltoall"):
            run_spmd(world, main)

    def test_alltoall_no_root_hotspot(self):
        """Pairwise exchange: every rank sends P-1 messages (no rank
        funnels all traffic)."""
        size = 4
        world = make_world(size)

        def main(comm):
            outgoing = [np.zeros(100) for _ in range(size)]
            yield from comm.alltoall(outgoing)

        run_spmd(world, main)
        assert world.messages_sent == size * (size - 1)



class TestCollectiveTiming:
    def test_bcast_cost_is_logarithmic(self):
        """Simulated binomial bcast must beat a linear send chain."""
        nbytes = 1e9

        def timed_bcast(size):
            world = make_world(size, latency=0.0, bandwidth=1.0)

            def main(comm):
                data = np.zeros(int(nbytes / 8)) if comm.rank == 0 else None
                yield from comm.bcast(data, root=0)
                return comm.engine.now

            return max(run_spmd(world, main))

        t8 = timed_bcast(8)
        # Binomial tree: root sends 3 sequential messages; depth-3 path
        # means the last leaf hears at 3 message times, not 7.
        assert t8 == pytest.approx(3.0, rel=0.01)
        model = NetworkModel(NetworkSpec(latency=0.0, bandwidth=1.0))
        assert t8 == pytest.approx(model.bcast(nbytes, 8), rel=0.01)



class TestWorldAccounting:
    def test_message_counters(self):
        world = make_world(2)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(125, dtype=np.float64), dest=1)
            else:
                yield from comm.recv(source=0)
            return None

        run_spmd(world, main)
        assert world.messages_sent == 1
        assert world.bytes_sent == 1000.0

    @pytest.mark.parametrize("same_node", [False, True])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -8.0])
    def test_invalid_payload_size_fails_loud(self, bad, same_node):
        # A NaN size used to be delivered at t=0 with no wire time and
        # turn bytes_sent NaN; a negative one skipped the wire-time check
        # on a same-node send.  Every path now names the payload.
        world = make_world(2, same_node=same_node)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(Sized(bad), dest=1)
            else:
                yield from comm.recv(source=0)

        with pytest.raises(ValueError, match=rf"Sized\b.*{bad!r}"):
            run_spmd(world, main)
        assert world.messages_sent == 0 and world.bytes_sent == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_invalid_precomputed_size_fails_loud(self, bad):
        world = make_world(2)

        def main(comm):
            payloads = [[1.0], [2.0]]
            sizes = [16.0, 16.0]
            sizes[1 - comm.rank] = bad
            yield from comm.alltoall(payloads, nbytes=sizes)

        with pytest.raises(ValueError, match=rf"list\b.*{bad!r}"):
            run_spmd(world, main)
        assert world.bytes_sent == 0.0

    def test_alltoall_charges_precomputed_sizes(self):
        # The shuffle hands alltoall the sizes it already computed; the
        # wire is charged those, not a second sizing of the payload.
        world = make_world(2, bandwidth=1e-9)  # 1 byte/s

        def main(comm):
            # each [x] would size as 16 bytes; rank 1 sends after its recv
            yield from comm.alltoall([[1.0], [2.0]], nbytes=[5.0, 5.0])
            return comm.engine.now

        assert run_spmd(world, main) == [10.0, 10.0]
        assert world.bytes_sent == 10.0

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            World(Engine(), 0, trace=Trace())

    def test_comm_rank_validation(self):
        world = make_world(2)
        with pytest.raises(ValueError):
            world.comm(5)


class TestFaultPaths:
    """Timeouts, aborts, drops and silent peers, checked on the trace
    each of them leaves behind."""

    def test_recv_timeout_raises_and_leaves_a_timeout_span(self):
        world = make_world(2)

        def main(comm):
            if comm.rank == 0:
                return None
            with pytest.raises(CommTimeout) as excinfo:
                yield from comm.recv(
                    source=0, tag=7, deadline=Deadline(comm.engine, 0.5)
                )
            return comm.engine.now, excinfo.value

        now, err = run_spmd(world, main)[1]
        assert now == 0.5
        assert (err.rank, err.source, err.tag, err.timeout) == (1, 0, 7, 0.5)
        (span,) = world.trace.tracer.find(category="recv")
        assert span.attrs["timeout"] is True
        assert (span.start, span.end) == (0.0, 0.5)
        assert "msg_id" not in span.attrs
        timeouts = world.trace.metrics.get(COMM_TIMEOUTS)
        assert timeouts.total() == 1.0 and timeouts.value(rank="r1") == 1.0

    def test_abort_event_unwinds_a_blocked_recv(self):
        world = make_world(2)
        abort = world.engine.event()
        world.attach_faults(None, abort_event=abort)

        def main(comm):
            if comm.rank == 0:
                yield comm.engine.timeout(0.25)
                abort.succeed(("rank-silent", 0))
                return None
            with pytest.raises(EpochAborted) as excinfo:
                yield from comm.recv(source=0, tag=3)
            return comm.engine.now, excinfo.value.cause

        assert run_spmd(world, main)[1] == (0.25, ("rank-silent", 0))
        assert world.trace.tracer.find(category="recv") == []

    def test_finished_receives_leave_no_callback_on_the_abort_event(self):
        world = make_world(3, bandwidth=1e9)
        abort = world.engine.event()
        world.attach_faults(None, abort_event=abort)
        held = []

        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    yield from comm.send(i, dest=1, tag=1)
                yield comm.engine.timeout(1.0)
                held.append(len(abort.callbacks))
                abort.succeed(("rank-silent", 0))
                return None
            if comm.rank == 1:
                got = []
                deadline = Deadline(comm.engine, 5.0)
                for _ in range(5):
                    got.append((yield from comm.recv(0, 1, deadline)))
                    deadline.restart()
                with pytest.raises(CommTimeout):
                    yield from comm.recv(0, 1, Deadline(comm.engine, 0.5))
                # every receive took its callback off the deadline too
                assert deadline.callbacks == []
                return got
            # rank 2 stays blocked until the abort fires
            with pytest.raises(EpochAborted):
                yield from comm.recv(source=0, tag=2)
            return None

        assert run_spmd(world, main)[1] == [0, 1, 2, 3, 4]
        # six finished receives, one still blocked: one callback
        assert held == [1]
        assert abort.callbacks == []

    def test_dropped_message_is_retransmitted(self):
        world = make_world(2, latency=0.25, bandwidth=1.0)
        plan = FaultPlan.from_specs(["msg_drop@0-1:count=1,t0=0"])
        world.attach_faults(FaultState(
            world.engine, plan, world.trace,
            FaultPolicy(retransmit_timeout_s=0.5),
        ))

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(Sized(0), dest=1, tag=2)
                return None
            payload = yield from comm.recv(source=0, tag=2)
            return comm.engine.now, payload.nbytes

        # wire 0.25 s, dropped; retransmit timer 0.5 s; wire again
        assert run_spmd(world, main)[1] == (1.0, 0)
        (send,) = world.trace.tracer.find(category="net")
        (recv,) = world.trace.tracer.find(category="recv")
        assert (send.start, send.end) == (0.0, 1.0)
        assert send.attrs["retransmits"] == 1
        assert recv.attrs["msg_id"] == send.attrs["msg_id"]
        assert recv.attrs["retransmits"] == 1
        retransmits = world.trace.metrics.get(COMM_RETRANSMITS)
        assert retransmits.value(src="r0") == 1.0

    @pytest.mark.parametrize(
        "windows, beats, fired_at, misses",
        [
            (1, (), 1.0, 1),
            (2, (), 2.0, 2),
            # a beat inside the second window resets the miss count
            (2, (1.5,), 3.5, 3),
        ],
    )
    def test_monitor_waits_for_missed_windows(
        self, windows, beats, fired_at, misses
    ):
        world = make_world(2, same_node=True)
        engine = world.engine
        abort = engine.event()

        def beater(comm):
            for t in beats:
                yield engine.timeout(t - engine.now)
                yield from comm.send(("hb", 1), 0, HEARTBEAT_TAG)

        monitor = engine.process(heartbeat_monitor(
            world.comm(0), 1, 1.0, abort, missed_windows=windows
        ))
        engine.process(beater(world.comm(1)))
        engine.run(monitor)
        assert engine.now == fired_at
        assert abort.triggered and abort.value == ("rank-silent", 1)
        timed_out = [
            s for s in world.trace.tracer.find(category="recv")
            if s.attrs.get("timeout")
        ]
        assert len(timed_out) == misses
        assert timed_out[-1].end == fired_at
        assert world.trace.metrics.get(COMM_TIMEOUTS).total() == misses

    def test_monitor_keeps_one_timer_while_beats_arrive(self):
        world = make_world(2, same_node=True)
        engine = world.engine
        abort = engine.event()
        timers = []
        schedule = engine.timeout

        def counted(delay, value=None):
            timers.append(delay)
            return schedule(delay, value)

        engine.timeout = counted
        interval, window, beats = 0.125, 1.0, 40

        def beater(comm):
            # paced by plain events, so every counted timer is the monitor's
            for _ in range(beats):
                yield engine.event().succeed(delay=interval)
                yield from comm.send(("hb", 1), 0, HEARTBEAT_TAG)

        monitor = engine.process(heartbeat_monitor(
            world.comm(0), 1, window, abort, missed_windows=1
        ))
        engine.process(beater(world.comm(1)))
        engine.run(monitor)
        makespan = engine.now
        assert makespan == beats * interval + window
        assert abort.value == ("rank-silent", 1)
        assert len(timers) <= math.ceil(makespan / window) + 1

    def test_beat_at_the_deadline_instant_resets_the_misses(self):
        world = make_world(2, same_node=True)
        engine = world.engine
        abort = engine.event()

        def beater(comm):
            # this timer is scheduled after the monitor's first one
            yield engine.timeout(1.0)
            yield from comm.send(("hb", 1), 0, HEARTBEAT_TAG)

        monitor = engine.process(heartbeat_monitor(
            world.comm(0), 1, 1.0, abort, missed_windows=1
        ))
        engine.process(beater(world.comm(1)))
        engine.run(monitor)
        assert engine.now == 2.0
        assert abort.value == ("rank-silent", 1)
        beat, missed = world.trace.tracer.find(category="recv")
        assert (beat.end, "timeout" in beat.attrs) == (1.0, False)
        assert (missed.start, missed.end, missed.attrs["timeout"]) == (
            1.0, 2.0, True
        )

    @pytest.mark.parametrize("kill_first", [True, False])
    def test_interrupt_in_the_deadline_instant_ends_the_monitor(
        self, kill_first
    ):
        """A rank kill landing in the instant a window expires ends the
        monitor, whether it lands before the receive's loss is decided
        (the decision then does nothing) or after it is decided but
        before it is delivered (the loss then fails no unwaited get)."""
        world = make_world(2, same_node=True)
        engine = world.engine
        abort = engine.event()
        holder = []

        def killer():
            yield engine.timeout(1.0)
            holder[0].interrupt("rank-kill")

        if kill_first:
            engine.process(killer())
        holder.append(engine.process(heartbeat_monitor(
            world.comm(0), 1, 1.0, abort, missed_windows=1
        )))
        if not kill_first:
            engine.process(killer())
        engine.run()
        assert engine.now == 1.0
        assert not holder[0].is_alive and not abort.triggered
        assert world.trace.tracer.find(category="recv") == []

    def test_exited_monitor_leaves_no_timer_behind(self):
        """A beat moves the deadline on, then the monitor is killed: the
        window's timer, firing early after the exit, must not re-arm."""
        world = make_world(2, same_node=True)
        engine = world.engine
        abort = engine.event()
        holder = []
        timers = []
        schedule = engine.timeout

        def counted(delay, value=None):
            timers.append(engine.now)
            return schedule(delay, value)

        engine.timeout = counted

        def beater(comm):
            # paced by plain events, so every counted timer is the monitor's
            yield engine.event().succeed(delay=0.5)
            yield from comm.send(("hb", 1), 0, HEARTBEAT_TAG)

        def killer():
            yield engine.event().succeed(delay=0.75)
            holder[0].interrupt("rank-kill")

        holder.append(engine.process(heartbeat_monitor(
            world.comm(0), 1, 1.0, abort, missed_windows=1
        )))
        engine.process(beater(world.comm(1)))
        engine.process(killer())
        engine.run()
        assert not holder[0].is_alive and not abort.triggered
        # the window's one timer, set at 0; it fires at 1.0 (before the
        # window's end of 1.5) and schedules nothing
        assert timers == [0.0]
        assert engine.now == 1.0
