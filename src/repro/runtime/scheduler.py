"""The two-level scheduler (paper §III.B.2).

Level 1 — the **task scheduler** on the master — lives in
:mod:`repro.runtime.prs`: it partitions the input (two partitions per fat
node by default) and ships partitions to workers.

Level 2 — the **sub-task scheduler** on each worker — is
:class:`SubTaskScheduler` here.  *How* a node-level partition is spread
over the device daemons is delegated to a pluggable
:class:`~repro.runtime.policies.SchedulingPolicy` looked up in the policy
registry by ``config.scheduling``: the paper's two strategies
(``static``, ``dynamic``) plus the adaptive-feedback and
locality-dynamic extensions live in :mod:`repro.runtime.policies`.  The
scheduler itself keeps what every policy shares: the device daemons, the
Equation (8) split decision, and the reduce path.

Fault tolerance (docs/FAULTS.md): when the job injects faults, the
daemons report failed blocks back here; after the policy finishes, the
scheduler re-executes them on surviving devices with exponential backoff
and a per-block retry budget.  A device that keeps failing is
blacklisted and the Equation (8) split is refit over the survivors —
the same refit path the adaptive-feedback policy uses for degraded
devices.  Emission order is canonicalized per block, so the reduce input
(and therefore the numerical result) is identical whether or not any
block had to be retried.
"""

from __future__ import annotations

from typing import Any, Generator

from repro import obs
from repro.core.analytic import SplitDecision, multi_device_split, workload_split
from repro.core.granularity import min_block_size, overlap_percentage
from repro.runtime.api import Block, MapReduceApp
from repro.runtime.daemons import CpuDaemon, GpuDaemon, NodeResources
from repro.runtime.job import JobConfig
from repro.runtime.partition import weighted_partition
from repro.runtime.policies import SchedulingPolicy, get_policy
from repro.runtime.recovery import JobAbortedError, NodeDeadError
from repro.runtime.shuffle import BlockOrderedSink, KeyValue
from repro.simulate.engine import Event
from repro.simulate.trace import Trace


class SubTaskScheduler:
    """Level-2 scheduler: runs partitions on one fat node's devices."""

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
        self.trace = trace
        node = resources.node

        self.cpu_daemon: CpuDaemon | None = None
        if config.use_cpu:
            self.cpu_daemon = CpuDaemon(resources, app, config, trace)

        self.gpu_daemons: list[GpuDaemon] = []
        if config.use_gpu:
            n = min(config.gpus_per_node, len(resources.gpu_engines))
            self.gpu_daemons = [
                GpuDaemon(resources, i, app, config, trace)
                for i in range(n)
            ]

        if self.cpu_daemon is None and not self.gpu_daemons:
            raise ValueError(
                f"node {node.name}: no device daemons engaged "
                f"(use_cpu={config.use_cpu}, use_gpu={config.use_gpu}, "
                f"node has {len(resources.gpu_engines)} GPU engines)"
            )

        #: fault wiring (None unless the job is armed; see ``enable_faults``)
        self.faults = None
        self.fault_policy = config.fault_policy
        self.node_index = resources.node_index
        self._blacklist: set[str] = set()
        self._device_failures: dict[str, int] = {}
        self._failed_blocks: list[Block] = []
        self._retry_counts: dict[tuple[int, int], int] = {}

        #: driver iteration currently deciding (updated by the phase
        #: pipeline at each feedback point; -1 = construction time).
        #: Audit records carry it so the drift series can pair each
        #: decision with the iterations it governed.
        self.current_iteration = -1

        self.split_decision = self._decide_split()
        #: construction-time split over the nominal device set.  Policies
        #: chop partitions with this, *never* the refit decision: block
        #: boundaries must be invariant under faults so the canonicalized
        #: pair stream — and every float reduction over it — is bitwise
        #: identical to the fault-free run (docs/FAULTS.md).
        self._nominal_split = self.split_decision
        if self.split_decision is not None:
            trace.metrics.gauge(obs.SPLIT_CPU_FRACTION).set(
                self.split_decision.p, node=node.name
            )
        self._audit_split("static-split")
        self.policy: SchedulingPolicy = get_policy(config.policy_name)(self)

    # ------------------------------------------------------------------
    # Fault wiring and device liveness
    # ------------------------------------------------------------------
    def enable_faults(self, faults: Any, node_index: int) -> None:
        """Attach live fault state and register this node's devices."""
        self.faults = faults
        self.node_index = node_index
        self.res.faults = faults
        self.res.node_index = node_index
        keys: list[str] = []
        if self.cpu_daemon is not None:
            key = faults.device_key(node_index, "cpu")
            self.cpu_daemon.fault_key = key
            self.cpu_daemon.fault_listener = self._on_block_failure
            keys.append(key)
        for i, daemon in enumerate(self.gpu_daemons):
            key = faults.device_key(node_index, f"gpu{i}")
            daemon.fault_key = key
            daemon.fault_listener = self._on_block_failure
            keys.append(key)
        faults.register_devices(node_index, keys)
        if any(faults.device_dead(k) for k in keys):
            # A restarted incarnation inherits devices killed earlier; the
            # construction-time split assumed the nominal device set.
            self._refit_split()
        faults.wire_node_links(
            node_index,
            [
                link
                for eng in self.res.gpu_engines
                for link in {id(eng.h2d): eng.h2d, id(eng.d2h): eng.d2h}.values()
            ],
        )

    def daemon_active(self, daemon: CpuDaemon | GpuDaemon | None) -> bool:
        if daemon is None:
            return False
        if daemon.device_name in self._blacklist:
            return False
        return daemon.fault_key is None or not self.faults.device_dead(
            daemon.fault_key
        )

    @property
    def active_cpu_daemon(self) -> CpuDaemon | None:
        return self.cpu_daemon if self.daemon_active(self.cpu_daemon) else None

    @property
    def active_gpu_daemons(self) -> list[GpuDaemon]:
        return [d for d in self.gpu_daemons if self.daemon_active(d)]

    def active_map_engines(self) -> list[CpuDaemon | GpuDaemon]:
        """Engines able to take map blocks, in device-weight order."""
        cpu = self.active_cpu_daemon
        engines: list[CpuDaemon | GpuDaemon] = [cpu] if cpu is not None else []
        engines.extend(self.active_gpu_daemons)
        return engines

    def nominal_map_engines(self) -> list[CpuDaemon | GpuDaemon]:
        """Every configured map engine, in device-weight order — the
        fault-invariant set policies plan block placement over (dead
        members are routed through recovery at dispatch time)."""
        engines: list[CpuDaemon | GpuDaemon] = (
            [self.cpu_daemon] if self.cpu_daemon is not None else []
        )
        engines.extend(self.gpu_daemons)
        return engines

    def block_home(self, block: Block) -> str | None:
        """The device whose memory already holds *block*'s input — the
        affinity policy's placement signal.

        A GPU holding the block in its loop-invariant cache wins (re-use
        avoids the PCI-E restage entirely); otherwise the allocator's
        region map names the daemon whose region last held the block's
        intermediates.  ``None`` for a block no device has touched yet.
        """
        for daemon in self.gpu_daemons:
            if daemon.is_cached(block):
                return daemon.device_name
        return self.res.allocator.home_of((block.start, block.stop))

    def _on_block_failure(
        self, daemon: CpuDaemon | GpuDaemon, block: Block, fatal: bool
    ) -> None:
        """Daemon callback: a map block died on *daemon*."""
        # Flush pending sampling-grid instants before the failure
        # counters move, so sampled series date the failure correctly.
        self.trace.tick(self.res.engine.now)
        name = daemon.device_name
        self.trace.metrics.counter(obs.RECOVERY_BLOCK_FAILURES).inc(
            1, device=name
        )
        self._failed_blocks.append(block)
        count = self._device_failures.get(name, 0) + 1
        self._device_failures[name] = count
        log = self.trace.log
        log.error(
            "sched",
            f"block [{block.start}:{block.stop}) failed on {name}",
            t=self.res.engine.now,
            rank=self.node_index,
            device=name,
            fatal=fatal,
            failures=count,
        )
        log.dump("fault", f"block failure on {name}", self.res.engine.now)
        if name not in self._blacklist and (
            fatal or count >= self.fault_policy.blacklist_after
        ):
            self._blacklist.add(name)
            self.trace.metrics.counter(obs.RECOVERY_DEVICES_BLACKLISTED).inc(
                1, device=name
            )
            log.warning(
                "sched",
                f"device {name} blacklisted after {count} failure(s)",
                t=self.res.engine.now,
                rank=self.node_index,
                device=name,
            )
            self._refit_split()

    def _refit_split(self) -> None:
        """Refit the Equation (8) split over the surviving devices."""
        self.split_decision = self._decide_split()
        self.trace.metrics.counter(obs.RECOVERY_SPLIT_REFITS).inc(
            1, node=self.res.node.name
        )
        self.trace.log.info(
            "sched",
            f"split refit over survivors on {self.res.node.name}",
            t=self.res.engine.now,
            rank=self.node_index,
            p=(
                self.split_decision.p
                if self.split_decision is not None
                else "n/a"
            ),
            blacklisted=len(self._blacklist),
        )
        if self.split_decision is not None:
            self.trace.metrics.gauge(obs.SPLIT_CPU_FRACTION).set(
                self.split_decision.p, node=self.res.node.name
            )
        self._audit_split("recovery-refit")

    # ------------------------------------------------------------------
    # Decision audit
    # ------------------------------------------------------------------
    def gpu_knobs(self, p: float) -> dict[str, Any]:
        """The Equation (11)/(9) GPU knobs for the GPU share of split *p*:
        ``minbs_bytes`` (``None`` when the peak is unreachable at any
        block size) and the overlap percentage ``op``."""
        gpus = self.active_gpu_daemons or self.gpu_daemons
        if not gpus:
            return {"minbs_bytes": None, "op": None}
        gpu = gpus[0].gpu
        profile = self.app.gpu_intensity()
        gpu_bytes = max(max(self.app.total_bytes(), 1.0) * (1.0 - p), 1.0)
        try:
            minbs: float | None = min_block_size(gpu, profile)
        except ValueError:
            minbs = None
        return {
            "minbs_bytes": minbs,
            "op": overlap_percentage(gpu, profile, gpu_bytes),
        }

    def _audit_split(self, kind: str) -> None:
        """Append the current Equation (8) decision — inputs and outputs —
        to the trace's audit log.  Pure bookkeeping: no simulated events,
        so audited and unaudited schedules are bit-identical."""
        decision = self.split_decision
        if decision is None:
            return
        app = self.app
        nbytes = max(app.total_bytes(), 1.0)
        outputs: dict[str, Any] = {
            "p": decision.p,
            "regime": decision.regime.value,
        }
        outputs.update(self.gpu_knobs(decision.p))
        self.trace.audit.record(
            kind,
            node=self.res.node.name,
            time=self.res.engine.now,
            iteration=self.current_iteration,
            inputs={
                "cpu_intensity": app.intensity().at(nbytes),
                "gpu_intensity": app.gpu_intensity().at(nbytes),
                "staged": not app.iterative,
                "partition_bytes": nbytes,
                "cpu_rate_gflops": decision.cpu_rate,
                "gpu_rate_gflops": decision.gpu_rate,
                "cpu_ridge": decision.cpu_ridge,
                "gpu_ridge": decision.gpu_ridge,
                "forced_p": self.config.force_cpu_fraction,
            },
            outputs=outputs,
        )

    # ------------------------------------------------------------------
    def _decide_split(self) -> SplitDecision | None:
        """Equation (8) for this node, honouring config overrides.

        Returns ``None`` when only one device class is engaged (nothing to
        split).  Computed over the *active* device set, so a blacklist
        refit degrades gracefully to the survivors.
        """
        if self.active_cpu_daemon is None or not self.active_gpu_daemons:
            return None
        node = self.res.node
        staged = not self.app.iterative
        decision = workload_split(
            node,
            self.app.intensity(),
            gpu_intensity=self.app.gpu_intensity(),
            staged=staged,
            partition_bytes=max(self.app.total_bytes(), 1.0),
        )
        if self.config.force_cpu_fraction is not None:
            decision = SplitDecision(
                p=self.config.force_cpu_fraction,
                cpu_rate=decision.cpu_rate,
                gpu_rate=decision.gpu_rate,
                regime=decision.regime,
                cpu_ridge=decision.cpu_ridge,
                gpu_ridge=decision.gpu_ridge,
            )
        return decision

    def device_weights(
        self, p_override: float | None = None, nominal: bool = False
    ) -> list[float]:
        """Work fractions per device: [cpu?, gpu0, gpu1, ...].

        *p_override* replaces the CPU fraction (adaptive policies feed the
        measured ``p`` back through here); ``None`` keeps the Equation (8)
        decision / ``force_cpu_fraction`` behaviour.  With ``nominal`` the
        vector spans the configured device set and the construction-time
        split (fault-invariant — aligned with ``[cpu?] + gpu_daemons``);
        otherwise it spans the survivors (aligned with
        :meth:`active_map_engines`), which is what block recovery uses to
        redistribute failed blocks.
        """
        cpu = self.cpu_daemon if nominal else self.active_cpu_daemon
        gpus = self.gpu_daemons if nominal else self.active_gpu_daemons
        decision = self._nominal_split if nominal else self.split_decision
        if cpu is not None and not gpus:
            return [1.0]
        if cpu is None:
            if not gpus:
                return []
            # GPUs only: equal split across identical cards.
            return [1.0 / len(gpus)] * len(gpus)
        assert decision is not None
        p = decision.p if p_override is None else p_override
        n = len(gpus)
        if n == 1:
            return [p, 1.0 - p]
        # Several GPUs: Equation (5) generalised across the device set.
        devices = [self.res.node.cpu] + [d.gpu for d in gpus]
        staged = not self.app.iterative
        fractions = multi_device_split(
            devices,
            self.app.intensity(),
            staged=staged,
            partition_bytes=max(self.app.total_bytes(), 1.0),
        )
        forced = (
            p_override if p_override is not None else self.config.force_cpu_fraction
        )
        if forced is not None:
            rest = sum(fractions[1:])
            scale = (1.0 - forced) / rest if rest > 0 else 0.0
            fractions = [forced] + [f * scale for f in fractions[1:]]
        return fractions

    # ------------------------------------------------------------------
    # Map phase
    # ------------------------------------------------------------------
    def run_map_partition(
        self, partition: Block, sink: list[KeyValue]
    ) -> Generator[Event, Any, None]:
        """Process fragment: map *partition* with the configured policy,
        then re-execute any blocks lost to device faults."""
        if partition.n_items == 0:
            return
        ordered = BlockOrderedSink(sink)
        yield from self.policy.run_map_partition(partition, ordered)
        # The retry budget is per map pass: an iterative app routes a dead
        # device's blocks through recovery every iteration, and that
        # steady-state rerouting must not exhaust the budget.  Without
        # armed faults no block fails, so recovery schedules nothing.
        self._retry_counts = {}
        yield from self._recover_failed_blocks(ordered)
        ordered.flush()

    def note_undispatched(self, block: Block) -> None:
        """A policy drained without running *block* (its devices died)."""
        self._failed_blocks.append(block)

    def _recover_failed_blocks(
        self, ordered: BlockOrderedSink
    ) -> Generator[Event, Any, None]:
        """Retry failed blocks on survivors with exponential backoff."""
        engine = self.res.engine
        policy = self.fault_policy
        log = self.trace.log
        round_no = 0
        while self._failed_blocks:
            round_no += 1
            blocks = sorted(
                {(b.start, b.stop): b for b in self._failed_blocks}.values(),
                key=lambda b: (b.start, b.stop),
            )
            self._failed_blocks = []
            for block in blocks:
                key = (block.start, block.stop)
                attempts = self._retry_counts.get(key, 0) + 1
                self._retry_counts[key] = attempts
                if attempts > policy.max_block_retries:
                    log.error(
                        "sched",
                        f"block [{block.start}:{block.stop}) exceeded "
                        f"retry budget {policy.max_block_retries}",
                        t=engine.now,
                        rank=self.node_index,
                        attempts=attempts,
                    )
                    raise JobAbortedError(
                        f"block [{block.start}:{block.stop}) on node "
                        f"{self.res.node.name} exceeded its retry budget "
                        f"({policy.max_block_retries})"
                    )
            engines = self.active_map_engines()
            if not engines:
                log.error(
                    "sched",
                    f"no surviving map device on {self.res.node.name}",
                    t=engine.now,
                    rank=self.node_index,
                )
                raise NodeDeadError(self.node_index, self.res.node.name)
            wait_start = engine.now
            delay = min(
                policy.backoff_base_s * policy.backoff_factor ** (round_no - 1),
                policy.backoff_max_s,
            )
            if delay > 0:
                yield engine.timeout(delay)
            self.trace.tick(engine.now)  # date the retry burst precisely
            self.trace.metrics.counter(obs.RECOVERY_BLOCKS_RETRIED).inc(
                len(blocks), node=self.res.node.name
            )
            log.info(
                "sched",
                f"retry round {round_no}: {len(blocks)} block(s) on "
                f"{len(engines)} device(s)",
                t=engine.now,
                rank=self.node_index,
                round=round_no,
                backoff_s=delay,
            )
            weights = self.device_weights()
            ranges = weighted_partition(len(blocks), weights)
            lanes = []
            for daemon, (lo, hi) in zip(engines, ranges):
                if hi > lo:
                    lanes += daemon.map_lanes(blocks[lo:hi], ordered)
            if lanes:
                yield engine.all_of(lanes)
            self.trace.record_recovery(
                f"retry round {round_no}",
                self.node_index,
                wait_start,
                engine.now,
                blocks=len(blocks),
                round=round_no,
            )

    # ------------------------------------------------------------------
    # Reduce phase
    # ------------------------------------------------------------------
    def run_reduce(
        self, groups: dict[Any, list[Any]], sink: dict[Any, Any]
    ) -> Generator[Event, Any, None]:
        """Process fragment: reduce the key groups on this node.

        Reduce tasks go to the CPU daemon when it is engaged (they are
        small aggregations); GPU-only jobs run them as GPU kernels.
        """
        if not groups:
            return
        cpu = self.active_cpu_daemon
        gpus = self.active_gpu_daemons
        if cpu is not None:
            yield from cpu.run_reduce(groups, sink)
        elif gpus:
            yield from gpus[0].run_reduce(groups, sink)
        elif self.cpu_daemon is not None:
            # Every device dead/blacklisted: fall back to the nominal CPU
            # daemon rather than silently dropping the reduce (the driver
            # aborts via NodeDeadError on the map path first in practice).
            yield from self.cpu_daemon.run_reduce(groups, sink)
        else:
            yield from self.gpu_daemons[0].run_reduce(groups, sink)
