"""The PRS runtime facade: run MapReduce jobs on a simulated fat-node cluster.

This is the level-1 **task scheduler** of the two-level design (§III.B.2)
plus the job driver of §III.A.2:

* the master splits the input into ``2 x n_nodes`` partitions (weighted by
  node capability for inhomogeneous clusters) and assigns them to worker
  sub-task schedulers;
* each iteration runs the phase chain built by
  :func:`repro.runtime.phases.iteration_graph` — broadcast of the loop state
  (iterative apps), map on every node's devices, optional combiner,
  cross-cluster shuffle of the intermediate buckets, distributed reduce,
  gather of the reduce outputs at the master, and a convergence step
  (state update + stop broadcast for iterative apps).  Every phase
  brackets itself in the trace (annotated with its place in the chain
  and the link it waited on), so the returned
  :class:`~repro.runtime.job.JobResult` carries a per-iteration,
  per-phase time breakdown;
* the job runs as epochs over the live nodes of one engine — a fault-free
  job is the single epoch, and fault tolerance / elastic membership add
  epochs only when the job arms them (:meth:`PRSRuntime.run`).

Data placement convention: like the paper's experiments ("the input
matrices were copied into CPU and GPU memories in advance", §IV.A.1), the
initial bulk distribution of the input is not timed; partition
*descriptors* and all intermediate/state traffic are timed through the
simulated network.  GPU staging of each block *is* timed through PCI-E,
once for iterative apps (then cached) and on every pass for others.
"""

from __future__ import annotations

from typing import Any, Generator

from repro import obs
from repro._validation import require_positive_int
from repro.comm.mpi import (
    EpochAborted,
    RankComm,
    World,
    spawn_heartbeats,
)
from repro.core.analytic import node_partition_weights
from repro.hardware.cluster import Cluster
from repro.runtime.api import Block, IterativeMapReduceApp, MapReduceApp
from repro.runtime.daemons import NodeResources
from repro.runtime.autoscale import Autoscaler
from repro.runtime.iterative import IterationLog
from repro.runtime.job import JobConfig, JobResult
from repro.runtime.membership import (
    ClusterView,
    ElasticState,
    MembershipError,
    MembershipEvent,
    MembershipSchedule,
)
from repro.runtime.partition import weighted_partition
from repro.runtime.phases import PhaseContext, SetupPhase, iteration_graph
from repro.runtime.recovery import (
    JobAbortedError,
    NodeDeadError,
    RecoveryState,
    RecoverySummary,
)
from repro.runtime.scheduler import SubTaskScheduler
from repro.simulate.engine import Engine, Event, Interrupt
from repro.simulate.faults import FaultPlan, FaultState
from repro.simulate.trace import Trace


class PRSRuntime:
    """Run :class:`MapReduceApp` jobs on a (simulated) CPU/GPU cluster."""

    def __init__(self, cluster: Cluster, config: JobConfig | None = None) -> None:
        self.cluster = cluster
        self.config = config if config is not None else JobConfig()

    # ------------------------------------------------------------------
    def _make_trace(self) -> Trace:
        """The job's trace, with the time-series sampler attached when
        ``config.sample_interval`` is set.  Attached before the World is
        built so the comm layer can register its α/β link model."""
        trace = Trace()
        interval = self.config.sample_interval
        if interval is not None:
            trace.attach_sampler(obs.MetricSampler(interval=interval))
        return trace

    def _finish_observability(self, trace: Trace, engine: Engine) -> list:
        """Post-run signal-plane epilogue: flush the sampling grid to
        the final makespan, evaluate the alert rules over the sampled
        series, and record firings as spans + counters.  Runs after the
        engine has drained, so it cannot perturb the schedule."""
        sampler = trace.sampler
        if sampler is None:
            return []
        sampler.finalize(engine.now)
        from repro.obs.rules import evaluate_rules, record_alerts

        alerts = evaluate_rules(sampler.bank, end=engine.now)
        record_alerts(trace.tracer, trace.metrics, alerts)
        # Alert rules evaluate retrospectively over the sampled series,
        # so the flight recorder fires here — one dump per firing,
        # stamped with the rule's trigger instant.
        log = trace.log
        for alert in alerts:
            log.warning(
                "alert",
                f"rule {alert.rule} fired",
                t=alert.start,
                severity=alert.severity,
                peak=alert.peak,
                threshold=alert.threshold,
            )
            log.dump("alert", alert.rule, alert.start)
        return alerts

    def _attach_selfprof(self, trace: Trace, engine: Engine) -> None:
        """Create, attach, and start the host-side wall-clock profiler
        when ``config.selfprof`` is set (the trace and engine keep their
        null profiler otherwise).  Attached to both the trace
        (obs/kernel/comm/policy scopes) and the engine (per-dispatch
        scopes) before any simulation work runs, so the root scope
        covers setup as well as the event loop."""
        if not self.config.selfprof:
            return
        from repro.obs.selfprof import SelfProfiler

        prof = SelfProfiler()
        trace.attach_selfprof(prof)
        engine.selfprof = prof
        prof.start()

    def _attach_log(self, trace: Trace, engine: Engine) -> None:
        """Create and attach the structured event log + flight recorder
        when ``config.log_level`` is set (the trace and engine keep
        their null log otherwise).  Pure host bookkeeping, so the
        simulated schedule is bitwise identical either way."""
        if self.config.log_level is None:
            return
        from repro.obs.log import EventLog

        log = EventLog(level=self.config.log_level)
        trace.attach_log(log)
        engine.log = log

    def _finish_selfprof(self, engine: Engine, app: MapReduceApp):
        """Stop the profiler and freeze the host profile (None when the
        job ran without one).

        Called after the engine has drained and observability is
        finalized; the meta carries the deterministic run context the
        derived throughput numbers (sim-s/wall-s, events/sec) need.
        """
        prof = engine.selfprof
        if not prof.enabled:
            return None
        prof.stop()
        return prof.profile(meta={
            "makespan_s": engine.now,
            "engine_events": engine.events_scheduled,
            "app": getattr(app, "name", type(app).__name__),
        })

    def _check_targets(self, plan: FaultPlan) -> None:
        """Fail before the engine runs when the plan or ``initial_nodes``
        names hardware outside the cluster."""
        cluster, config = self.cluster, self.config
        if config.initial_nodes is not None and (
            config.initial_nodes > cluster.n_nodes
        ):
            raise MembershipError(
                f"initial_nodes={config.initial_nodes} exceeds the pool of "
                f"{cluster.n_nodes} nodes"
            )
        plan.check_targets(
            [min(config.gpus_per_node, len(n.gpus)) for n in cluster.nodes]
        )

    # ------------------------------------------------------------------
    def run(self, app: MapReduceApp) -> JobResult:
        """Execute *app* to completion; returns outputs plus timing.

        The one job driver: the job runs as a sequence of epochs
        ("incarnations") over the live nodes of one shared engine, and a
        fault-free job is the single-epoch case.  The fault-tolerance
        machinery — the abort event every blocked receive watches, blocks
        raced against device faults, heartbeat deadlines, checkpoints, the
        recovery summary — is *armed* only when ``config.faults`` is
        non-empty or an elastic knob (``initial_nodes``, ``autoscale``) is
        set; an unarmed job schedules exactly the fault-free event stream
        (tests/integration/test_fingerprints.py).

        Armed, device faults are absorbed inside an epoch by the sub-task
        schedulers (retry/backoff/blacklist); a rank failure — detected
        by the heartbeat layer or reported by the dying worker — aborts
        the epoch, the communicator shrinks to the survivors, and
        iterative apps resume from the last checkpoint.  Planned
        membership transitions (``join``/``drain``, autoscaler) end an
        epoch at an iteration boundary and the next epoch refits the
        Eq. 8 assignment over the new member set — loss-free and
        bitwise-identical to the fault-free run (canonical full-pool part
        geometry + order-canonical reduction).  The engine clock is
        continuous across epochs, so the makespan includes every recovery
        cost.  See docs/FAULTS.md.
        """
        cluster = self.cluster
        config = self.config
        plan = config.faults if config.faults is not None else FaultPlan()
        armed = (
            bool(plan)
            or config.initial_nodes is not None
            or config.autoscale is not None
        )
        self._check_targets(plan)
        engine = Engine()
        trace = self._make_trace()
        self._attach_selfprof(trace, engine)
        self._attach_log(trace, engine)
        log = trace.log
        policy = config.fault_policy
        faults: FaultState | None = None
        dead_nodes: set[int] = set()
        if armed:
            faults = FaultState(engine, plan, trace, policy)
            faults.start()
            dead_nodes = faults.dead_nodes

        iterative = isinstance(app, IterativeMapReduceApp)
        max_iterations = app.max_iterations if iterative else 1
        recovery_state: RecoveryState | None = None
        if armed and iterative:
            recovery_state = RecoveryState(interval=policy.checkpoint_interval)
            # Iteration-0 snapshot, so a failure before the first periodic
            # checkpoint still restarts from a well-defined state.
            recovery_state.state = app.checkpoint()

        membership_events = plan.membership_events()
        elastic_mode = (
            config.initial_nodes is not None
            or config.autoscale is not None
            or bool(membership_events)
        )
        if elastic_mode and not iterative:
            raise ValueError(
                "elastic membership (initial_nodes / autoscale / join / "
                "drain events) requires an IterativeMapReduceApp: "
                "transitions apply at iteration boundaries"
            )
        # The versioned membership view is kept for *every* armed run —
        # rank kills advance it too — so the recovery summary always
        # carries the epoch timeline.  The ElasticState (schedule +
        # autoscaler + reconfigure protocol) only exists in elastic mode.
        view = ClusterView(
            cluster.n_nodes,
            initial=(
                range(config.initial_nodes)
                if config.initial_nodes is not None
                else None
            ),
        )
        elastic: ElasticState | None = None
        canonical_parts: list[Block] = []
        if elastic_mode:
            autoscaler = (
                Autoscaler(config.autoscale, cluster.n_nodes)
                if config.autoscale is not None
                else None
            )
            elastic = ElasticState(
                view,
                MembershipSchedule(
                    MembershipEvent(time=e.time, action=e.kind, node=e.node)
                    for e in membership_events
                ),
                autoscaler,
            )
            elastic.audit = trace.audit
            # Pre-touch the membership series at zero so the sampler
            # records them from t=0 — windowed `increase()` in the
            # membership-churn alert rule needs samples *before* the
            # first transition to see the jump.
            churn = trace.metrics.counter(
                obs.MEMBERSHIP_EVENTS,
                help="Applied membership transitions by action.",
            )
            for action in (
                "join",
                "drain",
                "rank-kill",
                "autoscale-up",
                "autoscale-down",
            ):
                churn.inc(0, action=action)
            trace.metrics.gauge(obs.MEMBERSHIP_EPOCH).set(0.0)
            trace.metrics.gauge(obs.MEMBERSHIP_LIVE_RANKS).set(
                float(view.n_live)
            )
            # Canonical geometry: parts are cut ONCE from the full-pool
            # Eq. 8 split and only their *assignment* to live ranks
            # changes across epochs.  Block boundaries — the only
            # geometry FP partial sums depend on — are therefore
            # invariant under joins/drains/kills, which (together with
            # ctx.canonical_reduction skipping the per-rank combiner
            # grouping) makes the output bitwise independent of the
            # membership walk.
            canonical_parts = [
                part
                for parts in self._partition_input(app)
                for part in parts
            ]

        final_output: dict[Any, Any] = {}
        iteration_log = IterationLog()
        iterations_done = [0]
        restarts = 0
        network_bytes = 0.0
        schedulers: list[SubTaskScheduler] = []
        all_splits: list[Any] = []

        while True:
            if elastic is not None:
                elastic.check_epoch_budget()
                for event, rec in elastic.apply_due(engine.now, dead_nodes):
                    trace.metrics.counter(obs.MEMBERSHIP_EVENTS).inc(
                        1, action=rec.cause
                    )
                    trace.record_membership(
                        rec.cause,
                        engine.now,
                        engine.now,
                        epoch=rec.epoch,
                        node=event.node,
                        members=",".join(str(n) for n in rec.members),
                        detail=rec.detail,
                    )
                    trace.audit.record(
                        kind="membership",
                        node=f"n{event.node}",
                        time=engine.now,
                        iteration=recovery_state.iteration,
                        inputs={"action": event.action, "cause": rec.cause},
                        outputs={
                            "epoch": rec.epoch,
                            "members": list(rec.members),
                        },
                    )
                    log.info(
                        "membership",
                        f"epoch {rec.epoch}: {rec.cause} node {event.node}",
                        t=engine.now,
                        epoch=rec.epoch,
                        action=rec.cause,
                        members=",".join(str(n) for n in rec.members),
                    )
                    log.dump(
                        "epoch", f"{rec.cause} node {event.node}", engine.now
                    )
                trace.metrics.gauge(obs.MEMBERSHIP_EPOCH).set(view.epoch)
            surviving = [n for n in view.members() if n not in dead_nodes]
            if not surviving:
                raise JobAbortedError("every node in the cluster has failed")
            if elastic is not None:
                trace.metrics.gauge(obs.MEMBERSHIP_LIVE_RANKS).set(
                    len(surviving)
                )
            dead_at_start = set(dead_nodes)
            sub_cluster = (
                cluster
                if len(surviving) == cluster.n_nodes
                else Cluster(
                    cluster.name,
                    tuple(cluster.nodes[n] for n in surviving),
                    cluster.network,
                )
            )
            world = World(
                engine,
                len(surviving),
                network=cluster.network,
                node_of=lambda r, s=tuple(surviving): s[r],
                trace=trace,
            )
            abort_event = engine.event()
            if faults is not None:
                world.attach_faults(faults, abort_event=abort_event)

            resources = [
                NodeResources(engine, cluster.nodes[n], config.gpus_per_node)
                for n in surviving
            ]
            schedulers = [
                SubTaskScheduler(res, app, config, trace) for res in resources
            ]
            for rank, (node_idx, sched) in enumerate(
                zip(surviving, schedulers)
            ):
                if faults is not None:
                    sched.enable_faults(faults, node_idx)
                # Trace tracks follow the physical node, not the (shrunk)
                # comm rank, so a node keeps one track across epochs.
                if sched.cpu_daemon is not None:
                    trace.bind_device(sched.cpu_daemon.device_name, node_idx)
                for daemon in sched.gpu_daemons:
                    trace.bind_device(daemon.device_name, node_idx)
                trace.bind_device(f"net.r{rank}", node_idx)
            all_splits.extend(
                s.split_decision
                for s in schedulers
                if s.split_decision is not None
            )

            if elastic is not None:
                node_partitions = self._assign_canonical_parts(
                    app, canonical_parts, sub_cluster
                )
            else:
                node_partitions = self._partition_input(app, sub_cluster)
            start_iteration = (
                recovery_state.iteration if recovery_state is not None else 0
            )

            def worker(comm: RankComm) -> Generator[Event, Any, Any]:
                rank = comm.rank
                node_idx = surviving[rank]
                ctx = PhaseContext(
                    engine=engine,
                    world=world,
                    comm=comm,
                    sched=schedulers[rank],
                    resources=resources[rank],
                    app=app,
                    config=config,
                    trace=trace,
                    iterative=iterative,
                    max_iterations=max_iterations,
                    node_partitions=node_partitions,
                    final_output=final_output,
                    iteration_log=iteration_log,
                    iterations_done=iterations_done,
                    trace_rank=node_idx,
                    recovery=recovery_state,
                    elastic=elastic,
                    canonical_reduction=elastic is not None,
                )
                ctx.iteration = start_iteration
                try:
                    yield from SetupPhase().run(ctx)
                    # The per-iteration lifecycle is one phase chain,
                    # run once per iteration.
                    graph = iteration_graph(ctx)
                    while True:
                        ctx.iter_start = engine.now
                        ctx.net_before = world.bytes_sent
                        yield from graph.run(ctx)
                        if ctx.reconfigure:
                            # Planned membership transition: quiesce at
                            # this iteration boundary and exit the epoch.
                            return ("reconfig", node_idx, engine.now)
                        if ctx.stop or not iterative:
                            break
                        ctx.iteration += 1
                    return ("done", node_idx, engine.now)
                except Interrupt:
                    # rank_kill landed on this worker
                    return ("killed", node_idx, engine.now)
                except EpochAborted:
                    return ("aborted", node_idx, engine.now)
                except NodeDeadError:
                    if not abort_event.triggered:
                        abort_event.succeed(("node-dead", node_idx))
                    return ("node-dead", node_idx, engine.now)
                except JobAbortedError as exc:
                    if not abort_event.triggered:
                        abort_event.succeed(("job-aborted", node_idx))
                    return ("job-aborted", node_idx, str(exc))

            procs = [
                engine.process(worker(world.comm(rank)), name=f"rank{rank}")
                for rank in range(world.size)
            ]
            # Heartbeat layer: workers beat to the master, the master beats
            # back, and monitors declare a silent peer dead by firing the
            # epoch abort.  Driver-owned (not worker children) so detection
            # outlives an individually finished worker — otherwise a rank
            # blocked on a dead peer's relay could hang with no detector
            # left alive.  Rebuilt each epoch, which after a communicator
            # resize doubles as the heartbeat re-registration step.
            hb_procs: list[tuple[int, Any]] = []
            if faults is not None:
                faults.reset_rank_procs()
                for rank, proc in enumerate(procs):
                    faults.register_rank_proc(surviving[rank], proc)
                if policy.rank_recovery and world.size > 1:
                    hb_procs = spawn_heartbeats(
                        world, policy, abort_event, surviving
                    )
                    for node_idx, proc in hb_procs:
                        faults.register_rank_proc(node_idx, proc)

            exits = engine.run(engine.all_of(procs))
            for _, proc in hb_procs:
                if proc.is_alive:
                    proc.interrupt("epoch over")
            network_bytes += world.bytes_sent

            aborted = [e for e in exits if e is not None and e[0] == "job-aborted"]
            if aborted:
                raise JobAbortedError(aborted[0][2])
            for exit_ in exits:
                if exit_ is not None and exit_[0] == "node-dead":
                    dead_nodes.add(exit_[1])
            cause = abort_event.value if abort_event.triggered else None
            if isinstance(cause, tuple) and cause[0] == "rank-silent":
                dead_nodes.add(surviving[cause[1]])

            if exits and exits[0] is not None and exits[0][0] == "done":
                break  # the master completed the job: output is final
            new_dead = set(dead_nodes) - dead_at_start
            reconfig = any(
                e is not None and e[0] == "reconfig" for e in exits
            )
            if reconfig and not new_dead:
                # Planned membership transition: every rank drained its
                # in-flight blocks and exited at the iteration boundary,
                # and the boundary checkpoint was forced before the
                # reconfigure broadcast — loss-free, so no restart
                # budget is consumed and no state restore is needed.
                # The due transitions apply at the top of the loop.
                continue
            if not new_dead:
                raise JobAbortedError(
                    f"epoch aborted without an identifiable dead rank "
                    f"(cause: {cause!r})"
                )
            if not policy.rank_recovery:
                raise JobAbortedError(
                    f"node(s) {sorted(new_dead)} failed and rank recovery "
                    "is disabled"
                )
            restarts += 1
            if restarts > policy.max_rank_restarts:
                raise JobAbortedError(
                    f"exceeded max_rank_restarts={policy.max_rank_restarts} "
                    f"(dead nodes: {sorted(dead_nodes)})"
                )
            trace.metrics.counter(obs.RECOVERY_RANK_RESTARTS).inc()
            now = engine.now
            for node_idx in sorted(new_dead):
                log.error(
                    "recovery",
                    f"rank on node {node_idx} declared dead",
                    t=now,
                    restart=restarts,
                    cause=str(cause),
                )
                log.dump("fault", f"rank-kill node {node_idx}", now)
            resume = recovery_state.iteration if recovery_state else 0
            log.info(
                "recovery",
                f"rank restart {restarts}: resuming from checkpoint "
                f"iteration {resume}",
                t=now,
                survivors=",".join(
                    str(n) for n in surviving if n not in new_dead
                ),
            )
            for node_idx in sorted(new_dead):
                rec = view.leave(node_idx, now)
                if elastic is not None and rec is not None:
                    trace.metrics.counter(obs.MEMBERSHIP_EVENTS).inc(
                        1, action="rank-kill"
                    )
                    trace.record_membership(
                        "rank-kill",
                        now,
                        now,
                        epoch=rec.epoch,
                        node=node_idx,
                        members=",".join(str(n) for n in rec.members),
                        detail=rec.detail,
                    )
                trace.close_rank(node_idx, now)
            for node_idx in surviving:
                if node_idx not in new_dead:
                    trace.record_recovery(
                        f"rank restart {restarts}",
                        node_idx,
                        now,
                        now,
                        dead=",".join(str(n) for n in sorted(new_dead)),
                        restart=restarts,
                    )
            if recovery_state is not None and recovery_state.state is not None:
                app.restore(recovery_state.state)

        trace.finalize(engine.now)
        trace.metrics.gauge(obs.JOB_MAKESPAN_SECONDS).set(engine.now)
        trace.metrics.gauge(obs.JOB_ITERATIONS).set(iterations_done[0])
        alerts = self._finish_observability(trace, engine)

        summary: RecoverySummary | None = None
        if armed:

            def total(name: str) -> int:
                return int(trace.metrics.counter(name).total())

            summary = RecoverySummary(
                faults_injected=total(obs.RECOVERY_FAULTS_INJECTED),
                block_failures=total(obs.RECOVERY_BLOCK_FAILURES),
                blocks_retried=total(obs.RECOVERY_BLOCKS_RETRIED),
                devices_blacklisted=total(obs.RECOVERY_DEVICES_BLACKLISTED),
                split_refits=total(obs.RECOVERY_SPLIT_REFITS),
                checkpoints=total(obs.RECOVERY_CHECKPOINTS),
                rank_restarts=restarts,
                comm_timeouts=total(obs.COMM_TIMEOUTS),
                retransmits=total(obs.COMM_RETRANSMITS),
                heartbeats=total(obs.COMM_HEARTBEATS),
                dead_nodes=tuple(sorted(dead_nodes)),
                joins=sum(
                    1
                    for r in view.history
                    if r.cause in ("join", "autoscale-up")
                ),
                drains=sum(
                    1
                    for r in view.history
                    if r.cause in ("drain", "autoscale-down")
                ),
                autoscale_decisions=(
                    elastic.autoscale_decisions if elastic is not None else 0
                ),
                epochs=tuple(view.history),
                flight_dumps=tuple(log.dumps),
            )

        return JobResult(
            output=dict(final_output),
            makespan=engine.now,
            trace=trace,
            splits=all_splits,
            iterations=iterations_done[0],
            total_flops=trace.total_flops(),
            network_bytes=network_bytes,
            iteration_log=iteration_log,
            policy=config.policy_name,
            final_cpu_fractions=[
                s.policy.effective_cpu_fraction()
                for s in schedulers
                if s.cpu_daemon is not None and s.gpu_daemons
            ],
            recovery=summary,
            alerts=alerts,
            engine_events=engine.events_scheduled,
            sampler_samples=(
                trace.sampler.total_samples if trace.sampler else 0
            ),
            selfprofile=self._finish_selfprof(engine, app),
            logs=log if log.enabled else None,
        )

    # ------------------------------------------------------------------
    def _node_weights(
        self, app: MapReduceApp, cluster: Cluster
    ) -> list[float]:
        """Level-1 node shares: equal on a homogeneous cluster, else each
        node's Eq. 8 capability for *app*."""
        if cluster.is_homogeneous:
            return [1.0] * cluster.n_nodes
        config = self.config
        return node_partition_weights(
            cluster,
            app.intensity(),
            staged=not app.iterative,
            partition_bytes=max(app.total_bytes(), 1.0),
            use_cpu=config.use_cpu,
            gpus_per_node=config.gpus_per_node if config.use_gpu else 0,
        )

    def _assign_canonical_parts(
        self, app: MapReduceApp, parts: list[Block], sub_cluster: Cluster
    ) -> list[list[Block]]:
        """Elastic assignment: deal the canonical full-pool parts out to
        the live nodes as contiguous runs, in ascending node order.

        Contiguity in *part* order is what keeps the shuffled value
        lists in global part order no matter how many ranks are live
        (alltoall concatenates buckets in source-rank order), which is
        one leg of the bitwise-identity guarantee (docs/FAULTS.md).
        """
        weights = self._node_weights(app, sub_cluster)
        return [
            parts[lo:hi] for lo, hi in weighted_partition(len(parts), weights)
        ]

    def _partition_input(
        self, app: MapReduceApp, cluster: Cluster | None = None
    ) -> list[list[Block]]:
        """Level-1 partitioning: node shares, then partitions per node.

        *cluster* overrides the runtime's cluster — the driver passes the
        live sub-cluster of the current epoch.
        """
        cluster = cluster if cluster is not None else self.cluster
        n_items = app.n_items()
        require_positive_int("app.n_items()", n_items)
        weights = self._node_weights(app, cluster)
        out: list[list[Block]] = []
        for lo, hi in weighted_partition(n_items, weights):
            node_block = Block(lo, hi)
            out.append(
                [
                    b
                    for b in node_block.split(self.config.partitions_per_node)
                    if b.n_items > 0
                ]
            )
        return out
