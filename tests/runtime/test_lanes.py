"""Daemon lanes: placement and timing against one process per block, and
the fault race each lane runs for its block."""

import pytest

from repro.runtime.api import Block
from repro.runtime.daemons import CpuDaemon, GpuDaemon, NodeResources
from repro.runtime.job import JobConfig, Overheads
from repro.runtime.shuffle import BlockOrderedSink
from repro.hardware import delta_cluster
from repro.runtime.prs import PRSRuntime
from repro.simulate.engine import Engine, Interrupt
from repro.simulate.faults import DeviceFault
from repro.simulate.resources import Resource
from repro.simulate.trace import Trace

from tests.helpers import ModSumApp, first_of

QUIET_CONFIG = JobConfig(overheads=Overheads(0.0, 0.0, 0.0, 0.0))
KEY = "n0.cpu"


def uneven_blocks(n_blocks, start=0):
    """Blocks of 40, 80, 120, 160 items, repeating: lanes free up out of
    order."""
    blocks = []
    for i in range(n_blocks):
        stop = start + 40 * (1 + i % 4)
        blocks.append(Block(start, stop))
        start = stop
    return blocks


def records(trace):
    return [(r.label, r.device, r.kind, r.start, r.end) for r in trace.records]


def per_block_oracle(engine, daemon, blocks, sink, n_streams=None):
    """One process per block, at most *n_streams* of them past a gate at
    once: the dispatch the lanes replace."""
    gate = Resource(engine, n_streams or len(blocks))

    def one(block):
        yield from gate.acquire()
        try:
            yield from daemon._map_block(block, sink)
        finally:
            gate.release()

    engine.run(engine.all_of([engine.process(one(b)) for b in blocks]))


class TestLanesMatchPerBlockProcesses:
    """Lanes change which process runs a block, never where or when."""

    def _run(self, node, make_daemon, blocks, lanes, **kwargs):
        engine = Engine()
        trace = Trace()
        daemon = make_daemon(NodeResources(engine, node, n_gpus=1), trace)
        pairs = []
        sink = BlockOrderedSink(pairs)
        if lanes:
            engine.run(engine.all_of(daemon.map_lanes(blocks, sink, **kwargs)))
        else:
            per_block_oracle(engine, daemon, blocks, sink, **kwargs)
        sink.flush()
        return records(trace), pairs, engine.now

    def test_cpu_split_with_more_blocks_than_cores(self, delta):
        app = ModSumApp(n=10_000, intensity=100.0)
        blocks = uneven_blocks(3 * delta.cpu.cores + 5)

        def make(res, trace):
            return CpuDaemon(res, app, JobConfig(), trace)

        lanes = self._run(delta, make, blocks, lanes=True)
        oracle = self._run(delta, make, blocks, lanes=False)
        assert lanes == oracle
        # the uneven blocks really did queue for cores, in several waves
        starts = sorted({start for _, _, _, start, _ in lanes[0]})
        assert len(starts) > 3

    @pytest.mark.parametrize("n_streams", [1, 2, None])
    def test_gpu_stream_window(self, delta, n_streams):
        app = ModSumApp(n=10_000, intensity=100.0)
        blocks = uneven_blocks(9)

        def make(res, trace):
            return GpuDaemon(res, 0, app, JobConfig(), trace)

        lanes = self._run(delta, make, blocks, lanes=True, n_streams=n_streams)
        oracle = self._run(delta, make, blocks, lanes=False, n_streams=n_streams)
        assert lanes == oracle

    def test_window_of_one_serializes(self, delta):
        app = ModSumApp(n=10_000, intensity=100.0)
        engine = Engine()
        res = NodeResources(engine, delta, n_gpus=1)
        daemon = GpuDaemon(res, 0, app, JobConfig(), Trace())
        blocks = uneven_blocks(5)
        lanes = daemon.map_lanes(blocks, BlockOrderedSink([]), n_streams=1)
        assert len(lanes) == 1


class HandFaults:
    """The fault-state surface a daemon reads, fired by hand: like
    ``FaultState``, a fired disruption event is replaced by a fresh one."""

    def __init__(self, engine):
        self.engine = engine
        self.dead = set()
        self.pending = engine.event()

    def device_dead(self, key):
        return key in self.dead

    def disruption(self, key):
        return self.pending

    def compute_scale(self, key, now):
        return 1.0

    def fire(self, kind, delay=0.0):
        evt, self.pending = self.pending, self.engine.event()
        if kind == "kill":
            # dead from the instant the disruption is processed
            evt.callbacks.append(lambda _evt: self.dead.add(KEY))
        evt.succeed(DeviceFault(KEY, kind), delay=delay)


class FaultRig:
    """A fault-armed CPU daemon whose failures are logged with their
    simulated time and place in the dispatch order."""

    def __init__(self, node, daemon_cls=CpuDaemon):
        self.engine = Engine()
        self.trace = Trace()
        self.res = NodeResources(self.engine, node, n_gpus=1)
        self.res.faults = self.faults = HandFaults(self.engine)
        app = ModSumApp(n=10_000, intensity=100.0)
        self.daemon = daemon_cls(self.res, app, QUIET_CONFIG, self.trace)
        self.daemon.fault_key = KEY
        self.daemon.fault_listener = self._failed
        self.log = []
        self.sink = BlockOrderedSink([])

    def _failed(self, daemon, block, fatal):
        self.log.append(("failed", self.engine.now, block.start, fatal))

    def lanes(self, blocks, n_lanes=1):
        """Polling lanes over *blocks*."""
        queue = list(blocks)
        return self.daemon.lanes(
            n_lanes, lambda: queue.pop(0) if queue else None, self.sink,
            batch=False,
        )

    def done(self):
        """(start item, end time) of every block that completed."""
        return [
            (int(label[4:].split(":")[0]), end)
            for label, _, _, _, end in records(self.trace)
        ]


def block_end(node, block):
    """When *block*, the first on a fresh lane, ends fault-free."""
    rig = FaultRig(node)
    rig.engine.run(rig.engine.all_of(rig.lanes([block])))
    return rig.done()[0][1]


class TestLaneFaultRace:
    @pytest.mark.parametrize(
        "death_first", [True, False], ids=["death-first", "timeout-first"]
    )
    def test_kill_at_a_blocks_last_timeout(self, delta, death_first):
        """The block whose last timeout shares the disruption's instant
        completes in either seq order (the decision waits one zero-delay
        hop); the lane's next block then fails once, as fatal."""
        first, second = Block(0, 400), Block(400, 800)
        end = block_end(delta, first)
        rig = FaultRig(delta)
        if death_first:
            # seq below the block's timeout: processed first at `end`
            rig.faults.fire("kill", delay=end)
        lanes = rig.lanes([first, second])

        def killer():
            yield rig.engine.timeout(end)
            rig.faults.fire("kill")

        if not death_first:
            rig.engine.process(killer())
        rig.engine.run(rig.engine.all_of(lanes))
        assert rig.done() == [(0, end)]
        assert rig.log == [("failed", end, 400, True)]
        assert rig.res.cpu_pool._in_use == 0

    def test_hiccup_at_a_blocks_last_timeout_spares_it(self, delta):
        """Disruption processed first, the block's last timeout next, at
        one instant: the block completes and the next one (started after
        the disruption fired) never sees the interrupt."""
        first, second = Block(0, 400), Block(400, 800)
        end = block_end(delta, first)
        rig = FaultRig(delta)
        rig.faults.fire("hiccup", delay=end)
        rig.engine.run(rig.engine.all_of(rig.lanes([first, second])))
        assert rig.log == []
        assert [start for start, _ in rig.done()] == [0, 400]

    def test_decision_and_interrupt_hops(self, delta):
        """A disruption mid-block: the decision is one zero-delay hop
        after the disruption is processed and the interrupt lands one hop
        after that, where the lane reports the failure."""
        block = Block(0, 400)
        mid = block_end(delta, block) / 2
        rig = FaultRig(delta)
        lanes = rig.lanes([block])
        engine = rig.engine

        def hop(n):
            rig.log.append(("hop", n))
            if n < 3:
                evt = engine.event()
                evt.callbacks.append(lambda _evt: hop(n + 1))
                evt.succeed()

        def striker():
            yield engine.timeout(mid)
            rig.faults.fire("hiccup")
            evt = engine.event()
            evt.callbacks.append(lambda _evt: hop(1))
            evt.succeed()

        engine.process(striker())
        engine.run(engine.all_of(lanes))
        assert rig.log == [
            ("hop", 1), ("hop", 2), ("failed", mid, 0, False), ("hop", 3)
        ]
        assert rig.done() == [] and rig.res.cpu_pool._in_use == 0

    def test_interrupt_never_lands_in_the_next_block(self, delta):
        """The block ends between the decision and the interrupt's
        delivery (its last event is zero-delay): the interrupt is dropped,
        the block counts as done and the lane's next block runs on."""

        class Scripted(CpuDaemon):
            """Blocks that wait for a gate, then a zero-delay timeout."""

            gates = {}

            def _map_block(self, block, sink):
                yield self.gates.setdefault(block.start, self.res.engine.event())
                yield self.res.engine.timeout(0.0)
                rig.log.append(("done", self.res.engine.now, block.start))

        rig = FaultRig(delta, daemon_cls=Scripted)
        engine = rig.engine
        lanes = rig.lanes([Block(0, 10), Block(10, 20)])

        def striker():
            yield engine.timeout(1.0)
            # processed in this order: the disruption (which schedules
            # the decision), the gate (the block resumes and schedules
            # its zero-delay timeout after the decision), the decision
            # (which schedules the interrupt), the timeout (the block
            # ends; the lane takes the next block), the interrupt
            rig.faults.fire("hiccup")
            Scripted.gates[0].succeed()
            yield engine.timeout(1.0)
            Scripted.gates[10].succeed()

        engine.process(striker())
        engine.run(engine.all_of(lanes))
        assert rig.log == [("done", 1.0, 0), ("done", 2.0, 10)]

    def test_kill_drains_the_lane_queue_as_failures(self, delta):
        """A kill fails the in-flight blocks through their races and
        every block a lane takes afterwards at once, so the failure count
        matches one guarded process per block."""
        blocks = uneven_blocks(3 * delta.cpu.cores)
        end = block_end(delta, blocks[0])
        rig = FaultRig(delta)
        lanes = rig.lanes(blocks, n_lanes=delta.cpu.cores)

        def killer():
            yield rig.engine.timeout(end / 2)
            rig.faults.fire("kill")

        rig.engine.process(killer())
        rig.engine.run(rig.engine.all_of(lanes))
        assert rig.done() == []
        failed = sorted(start for _, _, start, _ in rig.log)
        assert failed == [b.start for b in blocks]
        assert {(t, fatal) for _, t, _, fatal in rig.log} == {(end / 2, True)}
        assert rig.res.cpu_pool._in_use == 0

    def test_poll_hiccup_fails_only_the_blocks_in_flight(self, delta):
        """Polling lanes: a hiccup fails the blocks the lanes hold; a block
        taken afterwards races the device's next disruption and runs."""
        cores = delta.cpu.cores
        blocks = [Block(400 * i, 400 * (i + 1)) for i in range(3 * cores)]
        end = block_end(delta, blocks[0])
        rig = FaultRig(delta)
        lanes = rig.lanes(blocks, n_lanes=cores)

        def striker():
            yield rig.engine.timeout(end / 2)
            rig.faults.fire("hiccup")

        rig.engine.process(striker())
        rig.engine.run(rig.engine.all_of(lanes))
        failed = sorted(start for _, _, start, _ in rig.log)
        assert failed == [b.start for b in blocks[:cores]]
        assert {(t, fatal) for _, t, _, fatal in rig.log} == {(end / 2, False)}
        done = sorted(start for start, _ in rig.done())
        assert done == [b.start for b in blocks[cores:]]

    def test_disruption_callbacks_do_not_grow_with_blocks(self, delta):
        """Each block's race leaves the shared disruption event when the
        block ends: the event holds at most one callback per lane."""
        blocks = uneven_blocks(6 * delta.cpu.cores)
        rig = FaultRig(delta)
        death = rig.faults.pending
        engine = rig.engine
        lanes = rig.lanes(blocks, n_lanes=delta.cpu.cores)
        peak = []

        def probe():
            while any(lane.is_alive for lane in lanes):
                peak.append(len(death.callbacks))
                yield engine.timeout(1e-6)

        engine.process(probe())
        engine.run(engine.all_of(lanes))
        assert len(rig.done()) == len(blocks)
        assert 0 < max(peak) <= delta.cpu.cores
        assert death.callbacks == [] and not death.triggered


def guarded_per_block(rig, blocks):
    """The dispatch batch lanes replace, under faults: one process per
    block from the batch's start, racing the device's disruption event
    against the block's work in a second process."""
    engine, daemon, faults = rig.engine, rig.daemon, rig.faults

    def work(block):
        try:
            yield from daemon._map_block(block, rig.sink)
        except Interrupt:
            return True
        return False

    def one(block):
        if faults.device_dead(KEY):
            daemon._report_failure(block, fatal=True)
            return
        death = faults.disruption(KEY)
        proc = engine.process(work(block))
        yield first_of(engine, [proc, death])
        if proc.is_alive:
            proc.interrupt(death.value)
        if (yield proc):
            daemon._report_failure(block, fatal=faults.device_dead(KEY))

    return [engine.process(one(block)) for block in blocks]


class TestBatchFaults:
    """A batch's blocks all race the disruption event current when its
    lanes start, so a disruption fails the blocks still queued for a core
    as well as those in flight: the outcome of one guarded process per
    block."""

    @pytest.mark.parametrize("kind", ["hiccup", "kill"])
    def test_batch_matches_guarded_processes(self, delta, kind):
        blocks = uneven_blocks(3 * delta.cpu.cores + 5)
        strike = block_end(delta, blocks[0]) * 1.5

        def run(lanes):
            rig = FaultRig(delta)
            if lanes:
                procs = rig.daemon.map_lanes(blocks, rig.sink)
            else:
                procs = guarded_per_block(rig, blocks)

            def striker():
                yield rig.engine.timeout(strike)
                rig.faults.fire(kind)

            rig.engine.process(striker())
            rig.engine.run(rig.engine.all_of(procs))
            assert rig.res.cpu_pool._in_use == 0
            return rig.log, rig.done()

        log, done = run(lanes=True)
        assert (log, done) == run(lanes=False)
        # some blocks finished before the strike, the rest failed at it,
        # in dispatch order: the in-flight ones first, then the queued
        assert 0 < len(done) < len(blocks)
        assert len(log) == len(blocks) - len(done)
        assert {t for _, t, _, _ in log} == {strike}
        assert {fatal for _, _, _, fatal in log} == {kind == "kill"}

    def test_hiccup_after_the_batch_spares_the_next(self, delta):
        """A batch races only the disruption current when its lanes
        start: the next batch runs through a hiccup that hit before it."""
        blocks = uneven_blocks(4)
        rig = FaultRig(delta)
        rig.faults.fire("hiccup")
        rig.engine.run(rig.engine.timeout(1e-9))
        rig.engine.run(rig.engine.all_of(rig.daemon.map_lanes(blocks, rig.sink)))
        assert rig.log == []
        assert len(rig.done()) == len(blocks)


class TestHiccupScope:
    """Which blocks a CPU hiccup fails, through the scheduler: all 48
    blocks of node 0's static CPU batch, but only the 12 in flight (one
    per core) under polling; either way the CPU is benched and the split
    refit.  The counts are those of one guarded process per block."""

    @pytest.mark.parametrize(
        "policy, expected",
        [("static", (48, 96, 1, 1)), ("dynamic", (12, 12, 1, 1))],
    )
    def test_cpu_hiccup(self, policy, expected):
        app = ModSumApp(4000)
        result = PRSRuntime(
            delta_cluster(n_nodes=2),
            JobConfig(faults="cpu_hiccup@0:t=0.021", scheduling=policy),
        ).run(app)
        assert result.output == app.expected_output()
        rec = result.recovery
        assert (
            rec.block_failures,
            rec.blocks_retried,
            rec.devices_blacklisted,
            rec.split_refits,
        ) == expected
