"""GPU and CPU device daemons (paper §III.C.1).

"It spawns one daemon thread for each GPU card and one daemon thread for
all assigned CPU cores in the host. [...] The PRS also makes use of
Pthreads to schedule tasks on CPU cores.  Each thread runs one mapper or
reducer on each CPU core."

Here a daemon is its *lanes*: a :class:`Lane` is one DES process per
CPU core slot, or per GPU stream window, that takes its next map block
(or reduce group) from a queue and runs it to completion before it takes
another.  Policies differ only in what the queue hands out: a fixed
list (static, affinity, graph-partition, recovery retries) or a "next
block or ``None``" poll of a shared queue (dynamic, locality-dynamic).
A block costs no process of its own, and a fault-armed block races its
device's disruption event inside its lane (:class:`_Race`).

* :class:`CpuDaemon` — one lane per core of the node's core pool; each
  block holds one core for ``dispatch + flops / per-core-rate``
  seconds, where the per-core rate is the roofline-attainable CPU rate
  divided by the core count (all cores share DRAM bandwidth and the
  aggregate peak).
* :class:`GpuDaemon` — the single thread owning the GPU context
  (§III.C.3): a window of lanes issues stream blocks through the
  two-engine :class:`~repro.simulate.streams.GpuStreamEngine` (PCI-E
  copies overlap kernels), skipping host->device copies for
  loop-invariant cached input.

Both daemons execute the application's *functional* kernels (real NumPy)
while charging *simulated* time from the roofline models, so results are
numerically real and timings analytically faithful.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Iterable

from repro.core.intensity import IntensityProfile
from repro.hardware.node import FatNode
from repro.runtime.api import Block, MapReduceApp
from repro.runtime.job import JobConfig, Overheads
from repro.runtime.memory import MALLOC_OVERHEAD_S, RegionAllocator
from repro.runtime.shuffle import BlockOrderedSink
from repro.simulate.engine import Engine, Event, Interrupt, Process
from repro.simulate.resources import CorePool
from repro.simulate.streams import GpuStreamEngine, StreamBlock
from repro.simulate.trace import Trace

#: bookkeeping bytes reserved per emitted key/value object
_KV_OBJECT_BYTES = 96


class NodeResources:
    """The contended hardware of one fat node inside the simulation."""

    def __init__(self, engine: Engine, node: FatNode, n_gpus: int | None = None) -> None:
        self.engine = engine
        self.node = node
        self.cpu_pool = CorePool(engine, node.cpu.cores, name=f"{node.name}.cores")
        count = len(node.gpus) if n_gpus is None else min(n_gpus, len(node.gpus))
        self.gpu_engines = [
            GpuStreamEngine(engine, gpu, name=f"{node.name}.gpu{i}")
            for i, gpu in enumerate(node.gpus[:count])
        ]
        #: per-daemon-thread regions (§III.C.2); reset between stages
        self.allocator = RegionAllocator()
        #: live fault state (a :class:`repro.simulate.faults.FaultState`)
        #: when the job is armed; None keeps every code path on the exact
        #: fault-free schedule.
        self.faults = None
        #: physical node index this resource set represents (stable across
        #: rank-restart incarnations)
        self.node_index = -1


def _log_failure(daemon: Any, block: Block, fatal: bool) -> None:
    """Narrate a device-level block failure into the event log (pure
    host bookkeeping)."""
    rank = daemon.res.node_index if daemon.res.node_index >= 0 else None
    daemon.trace.log.emit(
        "error" if fatal else "warning",
        "daemon",
        f"map block [{block.start}:{block.stop}) faulted on "
        f"{daemon.device_name}",
        t=daemon.res.engine.now,
        rank=rank,
        device=daemon.device_name,
        fatal=fatal,
    )


def _log_kernel(daemon: Any, kind: str, block: Block, n_pairs: int) -> None:
    """Debug-level kernel/alloc narration for one finished map kernel."""
    log = daemon.trace.log
    if not log.wants_debug:
        return
    rank = daemon.res.node_index if daemon.res.node_index >= 0 else None
    if rank is None:
        rank = daemon.trace.rank_of(daemon.device_name)
    log.debug(
        "daemon",
        f"{kind} kernel done for [{block.start}:{block.stop})",
        t=daemon.res.engine.now,
        rank=rank,
        device=daemon.device_name,
        pairs=n_pairs,
    )


class Lane(Process):
    """One lane of a device daemon: a process per CPU core slot or GPU
    stream window that runs ``run(item, lane)`` for each item (a map
    block or a reduce group) ``take()`` hands it, until ``take()``
    returns ``None``.  The lane passes itself to *run*, so a fault race
    interrupts the lane that runs the block."""

    __slots__ = ()

    def __init__(
        self,
        engine: Engine,
        take: Callable[[], Any],
        run: Callable[[Any, "Lane"], Generator[Event, Any, None]],
        name: str,
    ) -> None:
        super().__init__(engine, self._loop(take, run), name)

    def _loop(
        self,
        take: Callable[[], Any],
        run: Callable[[Any, "Lane"], Generator[Event, Any, None]],
    ) -> Generator[Event, Any, None]:
        item = take()
        while item is not None:
            yield from run(item, self)
            item = take()


def _queue_take(items: Iterable[Any]) -> Callable[[], Any]:
    """A ``take`` callable handing out *items* in order, then ``None``."""
    queue = deque(items)
    return lambda: queue.popleft() if queue else None


class _Race:
    """A guarded block's race against its device's disruption event,
    run inside the block's lane: one callback on the event while the
    block runs, removed when it ends, so a disruption event shared by
    every block of a device holds only the blocks still in flight."""

    __slots__ = ("lane", "death", "running")

    def __init__(self, lane: Lane, death: Event) -> None:
        self.lane = lane
        self.death = death
        self.running = True
        death.callbacks.append(self._on_disruption)

    def _on_disruption(self, death: Event) -> None:
        # Decide one zero-delay hop later: every event already due at
        # this instant runs first, a block's last timeout among them.
        hop = Event(death.engine)
        hop.callbacks.append(self._decide)
        hop.succeed()

    def _decide(self, _hop: Event) -> None:
        if self.running:
            self.lane.interrupt(self.death.value, guard=lambda: self.running)

    def end(self) -> None:
        self.running = False
        if not self.death._processed:
            self.death.callbacks.remove(self._on_disruption)


def _run_guarded(
    daemon: Any,
    block: Block,
    sink: BlockOrderedSink,
    lane: Lane,
    death: Event | None,
) -> Generator[Event, Any, None]:
    """Fault-aware block: race it against *death*, its batch's disruption
    event, or (``None``) the device's disruption event current now; on a
    fault the lane is interrupted out of the in-flight work (whose
    resource cleanup runs) and the failed block is reported to the
    scheduler instead of being lost."""
    faults = daemon.res.faults
    key = daemon.fault_key
    if death is not None and death._processed:
        # Its batch's disruption already fired: the block fails as it
        # would have in its queue, one zero-delay hop later, so after the
        # blocks that were in flight.
        yield daemon.res.engine.timeout(0.0)
        daemon._report_failure(block, fatal=faults.device_dead(key))
        return
    if faults.device_dead(key):
        daemon._report_failure(block, fatal=True)
        return
    race = _Race(lane, faults.disruption(key) if death is None else death)
    try:
        yield from daemon._map_block(block, sink)
    except Interrupt:
        daemon._report_failure(block, fatal=faults.device_dead(key))
    finally:
        race.end()


class _MapDaemon:
    """Map dispatch shared by the CPU and GPU daemons."""

    #: fault-state device key + scheduler failure callback, wired by
    #: ``SubTaskScheduler.enable_faults`` (None unless the job is armed)
    fault_key: str | None = None
    fault_listener: Any = None
    #: process name of this daemon's map lanes
    lane_name: str

    def _report_failure(self, block: Block, fatal: bool) -> None:
        _log_failure(self, block, fatal)
        if self.fault_listener is not None:
            self.fault_listener(self, block, fatal)

    def run_map_block(
        self,
        block: Block,
        sink: BlockOrderedSink,
        lane: Lane,
        death: Event | None,
    ) -> Generator[Event, Any, None]:
        """Process fragment: one map sub-task on this daemon's device, run
        by *lane* — raced against the device's faults once they are wired
        (*death* as in :func:`_run_guarded`)."""
        if self.fault_key is None:
            yield from self._map_block(block, sink)
        else:
            yield from _run_guarded(self, block, sink, lane, death)

    def lanes(
        self,
        n_lanes: int,
        take: Callable[[], Block | None],
        sink: BlockOrderedSink,
        *,
        batch: bool,
    ) -> list[Lane]:
        """Start *n_lanes* lanes mapping the blocks ``take()`` hands out.

        A *batch* is blocks dispatched all at once that queue for the
        lanes: each races the disruption event current when the batch is
        dispatched, so a hiccup fails the blocks still queued along with those
        in flight.  Otherwise (a poll, a stream window) a block races the
        event current when its lane takes it.
        """
        death = None
        if batch and self.fault_key is not None:
            death = self.res.faults.disruption(self.fault_key)

        def run(block: Block, lane: Lane) -> Generator[Event, Any, None]:
            return self.run_map_block(block, sink, lane, death)

        engine = self.res.engine
        return [Lane(engine, take, run, self.lane_name) for _ in range(n_lanes)]


def _alloc_seconds(
    resources: NodeResources,
    thread_id: str,
    n_objects: int,
    use_region: bool,
) -> float:
    """Simulated cost of allocating *n_objects* intermediate KV records.

    With the region allocator only backing-buffer growth costs a malloc;
    without it every object pays one device-malloc (§III.C.2: "the
    aggregated overhead of the malloc operations can degrade the
    performance if many small memory allocation requests exist").
    """
    if n_objects <= 0:
        return 0.0
    if not use_region:
        return n_objects * MALLOC_OVERHEAD_S
    region = resources.allocator.region(thread_id)
    before = region.stats.backing_allocs
    region.reserve(n_objects, _KV_OBJECT_BYTES)
    return (region.stats.backing_allocs - before) * MALLOC_OVERHEAD_S


class CpuDaemon(_MapDaemon):
    """The one daemon thread managing all CPU cores of a node."""

    lane_name = "cpu-map"

    def __init__(
        self,
        resources: NodeResources,
        app: MapReduceApp,
        config: JobConfig,
        trace: Trace,
    ) -> None:
        self.res = resources
        self.app = app
        self.config = config
        self.overheads = config.overheads
        self.trace = trace
        self.device_name = f"{resources.node.name}.cpu"

    # ------------------------------------------------------------------
    def block_seconds(self, flops: float, nbytes: float) -> float:
        """Simulated seconds one core needs for a block of *flops* over
        *nbytes* input bytes (excl. dispatch)."""
        if flops <= 0:
            return 0.0
        intensity = self.app.intensity().at(nbytes)
        cpu = self.res.node.cpu
        per_core = cpu.attainable_gflops(intensity) / cpu.cores
        return flops / (per_core * 1e9)

    def _map_block(
        self, block: Block, sink: BlockOrderedSink
    ) -> Generator[Event, Any, None]:
        engine = self.res.engine
        yield from self.res.cpu_pool.acquire()
        try:
            start = engine.now
            # Flush pending sampling-grid instants at dispatch: the
            # block's own record only lands when it *ends*, which can be
            # many grid pitches away for coarse blocks.
            self.trace.tick(start)
            prof = self.trace.selfprof
            prof.begin("kernel:cpu-map")
            try:
                pairs = self.app.cpu_map(block)
            finally:
                prof.end()
            prof.begin("alloc:region")
            try:
                alloc_s = _alloc_seconds(
                    self.res,
                    self.device_name,
                    len(pairs),
                    self.config.use_region_allocator,
                )
            finally:
                prof.end()
            # The block's cost-model inputs, asked once per block (apps
            # may override these callbacks) and reused by its record.
            flops = self.app.map_flops(block)
            nbytes = self.app.block_bytes(block)
            duration = (
                self.overheads.cpu_task_dispatch_s
                + self.block_seconds(flops, nbytes)
                + alloc_s
            )
            faults = self.res.faults
            if faults is not None:
                duration *= faults.compute_scale(self.fault_key, start)
            yield engine.timeout(duration)
            _log_kernel(self, "cpu-map", block, len(pairs))
            sink.record_block(block, pairs)
            self.res.allocator.note_block(
                (block.start, block.stop), self.device_name
            )
            self.trace.record(
                f"map[{block.start}:{block.stop}]",
                self.device_name,
                "compute",
                start,
                engine.now,
                nbytes=nbytes,
                flops=flops,
            )
        finally:
            self.res.cpu_pool.release()

    def map_lanes(self, blocks: list[Block], sink: BlockOrderedSink) -> list[Lane]:
        """Start one lane per core slot over *blocks*, taken in order: a
        batch, whose blocks all queue for a core at once."""
        n_lanes = min(self.res.cpu_pool.capacity, len(blocks))
        return self.lanes(n_lanes, _queue_take(blocks), sink, batch=True)

    def run_reduce(
        self,
        groups: dict[Any, list[Any]],
        sink: dict[Any, Any],
    ) -> Generator[Event, Any, None]:
        """Process fragment: the key groups' reduce tasks on one lane per
        core slot."""
        engine = self.res.engine

        def one(
            group: tuple[Any, list[Any]], _lane: Lane
        ) -> Generator[Event, Any, None]:
            key, values = group
            yield from self.res.cpu_pool.acquire()
            try:
                start = engine.now
                flops = self.app.reduce_flops(key, values)
                cpu = self.res.node.cpu
                per_core = cpu.peak_gflops / cpu.cores
                duration = (
                    self.overheads.cpu_task_dispatch_s + flops / (per_core * 1e9)
                )
                yield engine.timeout(duration)
                prof = self.trace.selfprof
                prof.begin("kernel:cpu-reduce")
                try:
                    sink[key] = self.app.cpu_reduce(key, values)
                finally:
                    prof.end()
                self.trace.record(
                    f"reduce[{key!r}]",
                    self.device_name,
                    "reduce",
                    start,
                    engine.now,
                    flops=flops,
                )
            finally:
                self.res.cpu_pool.release()

        n_lanes = min(self.res.cpu_pool.capacity, len(groups))
        take = _queue_take(groups.items())
        yield engine.all_of(
            [Lane(engine, take, one, "cpu-reduce") for _ in range(n_lanes)]
        )


class GpuDaemon(_MapDaemon):
    """The daemon thread owning one GPU card (and its context, §III.C.3)."""

    lane_name = "gpu-map"

    def __init__(
        self,
        resources: NodeResources,
        gpu_index: int,
        app: MapReduceApp,
        config: JobConfig,
        trace: Trace,
    ) -> None:
        if gpu_index >= len(resources.gpu_engines):
            raise ValueError(
                f"node {resources.node.name} exposes "
                f"{len(resources.gpu_engines)} GPU engines, not {gpu_index + 1}"
            )
        self.res = resources
        self.stream_engine = resources.gpu_engines[gpu_index]
        self.gpu = self.stream_engine.gpu
        self.app = app
        self.config = config
        self.overheads = config.overheads
        self.trace = trace
        self.device_name = self.stream_engine.name
        #: item spans already resident in GPU memory (loop-invariant cache)
        self._cached_blocks: set[tuple[int, int]] = set()
        #: bytes currently held by the loop-invariant cache
        self.cached_bytes: float = 0.0
        #: fraction of device memory the cache may occupy (the rest is
        #: working set: intermediates, kernel scratch, regions)
        self.cache_capacity_fraction: float = 0.9

    # ------------------------------------------------------------------
    def kernel_seconds(self, flops: float, nbytes: float) -> float:
        """Kernel time for a block of *flops* over *nbytes* input bytes
        from the resident-arm roofline."""
        if flops <= 0:
            return 0.0
        intensity = self.app.gpu_intensity().at(nbytes)
        rate = self.gpu.attainable_gflops(intensity, staged=False)
        return flops / (rate * 1e9)

    def is_cached(self, block: Block) -> bool:
        """Whether *block*'s input already resides in GPU memory.

        Caching requires the funneled single-context design: "instead of
        having every MapReduce tasks creating its own GPU context, we make
        GPU device daemon to be the only thread that communicate to GPU
        device" (§III.C.3) — per-task contexts cannot keep data resident
        across tasks.  The ``locality-dynamic`` scheduling policy polls
        this to steer cached blocks back to their daemon.
        """
        return (
            self.config.single_gpu_context
            and self.app.iterative
            and (block.start, block.stop) in self._cached_blocks
        )

    def _stream_block(self, block: Block, nbytes: float) -> StreamBlock:
        flops = self.app.gpu_map_flops(block)
        return StreamBlock(
            in_bytes=0.0 if self.is_cached(block) else nbytes,
            flops=flops,
            out_bytes=self.app.map_output_bytes(block),
            kernel_seconds=self.kernel_seconds(flops, nbytes),
        )

    def _map_block(
        self, block: Block, sink: BlockOrderedSink
    ) -> Generator[Event, Any, None]:
        engine = self.res.engine
        if not self.config.single_gpu_context:
            # §III.C.3's anti-pattern: the task creates its own GPU
            # context instead of funneling through this daemon's.
            if self.overheads.gpu_context_s > 0:
                yield engine.timeout(self.overheads.gpu_context_s)
        if self.overheads.gpu_task_dispatch_s > 0:
            yield engine.timeout(self.overheads.gpu_task_dispatch_s)
        # Same dispatch-time sampler flush as the CPU daemon: coarse
        # stream blocks should not leave grid instants back-filled late.
        self.trace.tick(engine.now)
        # asked once per block (apps may override the callback)
        nbytes = self.app.block_bytes(block)
        stream_block = self._stream_block(block, nbytes)
        faults = self.res.faults
        if faults is not None:
            scale = faults.compute_scale(self.fault_key, engine.now)
            if scale != 1.0 and stream_block.kernel_seconds is not None:
                stream_block = StreamBlock(
                    in_bytes=stream_block.in_bytes,
                    flops=stream_block.flops,
                    out_bytes=stream_block.out_bytes,
                    kernel_seconds=stream_block.kernel_seconds * scale,
                )
        yield from self.stream_engine.run_block(
            stream_block,
            trace=self.trace,
            label=f"map[{block.start}:{block.stop}]",
        )
        if self.app.iterative:
            # The loop-invariant input for this span becomes resident —
            # but only while it fits in device memory alongside the
            # working set.  C-means can cache "the event matrix in GPU
            # memory" (§IV.A.1) because it fits; oversized inputs must
            # re-stage every iteration.
            key = (block.start, block.stop)
            budget = self.cache_capacity_fraction * self.gpu.memory_bytes
            if key not in self._cached_blocks and (
                self.cached_bytes + nbytes <= budget
            ):
                self._cached_blocks.add(key)
                self.cached_bytes += nbytes
        prof = self.trace.selfprof
        prof.begin("kernel:gpu-map")
        try:
            pairs = self.app.gpu_map(block)
        finally:
            prof.end()
        prof.begin("alloc:region")
        try:
            alloc = _alloc_seconds(
                self.res,
                self.device_name,
                len(pairs),
                self.config.use_region_allocator,
            )
        finally:
            prof.end()
        if alloc > 0:
            yield engine.timeout(alloc)
        _log_kernel(self, "gpu-map", block, len(pairs))
        sink.record_block(block, pairs)
        self.res.allocator.note_block(
            (block.start, block.stop), self.device_name
        )

    def map_lanes(
        self,
        blocks: list[Block],
        sink: BlockOrderedSink,
        n_streams: int | None = None,
    ) -> list[Lane]:
        """Start a window of *n_streams* lanes over *blocks*, taken in
        order: at most that many blocks are issued at once.

        ``n_streams=1`` serializes (the no-stream baseline); ``None``
        issues every block at once and lets the device's in-flight window
        (work queues) govern overlap.  A block races the device's faults
        from when it is issued: a hiccup spares the blocks still waiting
        for the window.
        """
        n_lanes = len(blocks)
        if n_streams is not None and n_streams >= 1:
            n_lanes = min(n_streams, n_lanes)
        return self.lanes(n_lanes, _queue_take(blocks), sink, batch=False)

    def run_reduce(
        self,
        groups: dict[Any, list[Any]],
        sink: dict[Any, Any],
    ) -> Generator[Event, Any, None]:
        """Process fragment: reduce tasks as small GPU kernels, all issued
        at once (one lane per key group).

        Used when the job runs GPU-only; values are already in host memory
        after the shuffle, so each reduce pays a (small) h2d + kernel.
        """
        engine = self.res.engine

        def one(
            group: tuple[Any, list[Any]], _lane: Lane
        ) -> Generator[Event, Any, None]:
            key, values = group
            flops = self.app.reduce_flops(key, values)
            duration = flops / (self.gpu.peak_gflops * 1e9)
            if self.overheads.gpu_task_dispatch_s > 0:
                yield engine.timeout(self.overheads.gpu_task_dispatch_s)
            yield from self.stream_engine.run_block(
                StreamBlock(
                    in_bytes=sum(
                        float(getattr(v, "nbytes", 64)) for v in values
                    ),
                    flops=flops,
                    out_bytes=self.app.reduce_output_bytes(key, None),
                    kernel_seconds=duration,
                ),
                trace=self.trace,
                label=f"reduce[{key!r}]",
            )
            prof = self.trace.selfprof
            prof.begin("kernel:gpu-reduce")
            try:
                sink[key] = self.app.gpu_device_reduce(key, values)
            finally:
                prof.end()

        take = _queue_take(groups.items())
        yield engine.all_of(
            [Lane(engine, take, one, "gpu-reduce") for _ in groups]
        )
