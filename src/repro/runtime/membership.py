"""Elastic cluster membership: a versioned view of the live rank set.

The fault-tolerant driver (PR 3) already runs a job as a sequence of
*epochs* over one shared engine — but the only membership transition it
knows is involuntary death.  This module makes membership a first-class,
mutable input to the Equation (8) partition refit:

* :class:`ClusterView` is the master-owned versioned view — epoch
  counter, live member set over a fixed node *pool*, per-rank device
  sets, and the full :class:`EpochRecord` history (cause + timestamp of
  every transition);
* :class:`MembershipSchedule` holds the declarative ``join@NODE:t=T`` /
  ``drain@NODE:t=T`` events of a fault plan plus any decisions the
  autoscaler enqueues at run time;
* :class:`ElasticState` is the driver-side glue: it decides *when* an
  epoch must end (a due membership event or an autoscaler decision) and
  applies due transitions at the next epoch boundary.

Deliberately leaf-level (imports only validation helpers) so
:mod:`repro.runtime.recovery` can embed :class:`EpochRecord` in its
summary without cycles.

Semantics (docs/FAULTS.md "Elasticity"):

* ``join``  — a pool node outside the live set becomes a member;
* ``drain`` — a live member retires *voluntarily*: the driver quiesces
  at the next iteration boundary, checkpoints, and resumes without it —
  a planned, loss-free version of the rank-kill path (no restart budget
  is consumed);
* ``leave`` — involuntary removal (rank kill), recorded here so the
  epoch history interleaves crashes with planned transitions.

Transitions are applied at iteration boundaries only ("quiesce"): the
convergence phase broadcasts a reconfigure signal instead of the stop
flag, every rank drains its in-flight blocks and exits the epoch, and
the driver refits the split over the new member set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro._validation import require_positive_int

#: causes carried by :class:`EpochRecord`
EPOCH_CAUSES = (
    "start",
    "join",
    "drain",
    "rank-kill",
    "autoscale-up",
    "autoscale-down",
)


class MembershipError(ValueError):
    """An invalid membership transition was requested."""


@dataclass(frozen=True)
class EpochRecord:
    """One membership epoch: who was live, since when, and why."""

    epoch: int
    time: float
    cause: str
    members: tuple[int, ...]
    detail: str = ""

    def __post_init__(self) -> None:
        if self.cause not in EPOCH_CAUSES:
            raise MembershipError(
                f"unknown epoch cause {self.cause!r}; expected one of "
                + ", ".join(EPOCH_CAUSES)
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "epoch": self.epoch,
            "time": self.time,
            "cause": self.cause,
            "members": list(self.members),
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "EpochRecord":
        return cls(
            epoch=int(d["epoch"]),
            time=float(d["time"]),
            cause=str(d["cause"]),
            members=tuple(int(m) for m in d["members"]),
            detail=str(d.get("detail", "")),
        )


class ClusterView:
    """Master-owned versioned membership over a fixed node pool.

    The pool is the cluster handed to the runtime (indices
    ``0..pool_size-1``); the live set is any non-empty subset.  Every
    transition bumps ``epoch`` and appends an :class:`EpochRecord`, so
    ``history`` is the authoritative timeline the recovery summary and
    ``run --json`` expose.
    """

    def __init__(
        self,
        pool_size: int,
        initial: Iterable[int] | None = None,
        time: float = 0.0,
    ) -> None:
        require_positive_int("pool_size", pool_size)
        members = (
            tuple(range(pool_size)) if initial is None else tuple(sorted(set(initial)))
        )
        if not members:
            raise MembershipError("initial member set must not be empty")
        for n in members:
            self._check_node(n, pool_size)
        self.pool_size = pool_size
        self._live: set[int] = set(members)
        self.epoch = 0
        #: node -> device names, filled by the driver as epochs bind
        self.devices: dict[int, tuple[str, ...]] = {}
        self.history: list[EpochRecord] = [
            EpochRecord(epoch=0, time=time, cause="start", members=members)
        ]

    @staticmethod
    def _check_node(node: int, pool_size: int) -> None:
        if not (isinstance(node, int) and 0 <= node < pool_size):
            raise MembershipError(
                f"node {node!r} outside the pool [0, {pool_size})"
            )

    # -- queries -------------------------------------------------------
    @property
    def live(self) -> frozenset[int]:
        return frozenset(self._live)

    def members(self) -> list[int]:
        """Live nodes in ascending order (= comm-rank order)."""
        return sorted(self._live)

    @property
    def n_live(self) -> int:
        return len(self._live)

    # -- transitions ---------------------------------------------------
    def _advance(self, time: float, cause: str, detail: str) -> EpochRecord:
        self.epoch += 1
        rec = EpochRecord(
            epoch=self.epoch,
            time=time,
            cause=cause,
            members=tuple(self.members()),
            detail=detail,
        )
        self.history.append(rec)
        return rec

    def join(
        self, node: int, time: float, cause: str = "join", detail: str = ""
    ) -> EpochRecord:
        """Add a pool node to the live set."""
        self._check_node(node, self.pool_size)
        if node in self._live:
            raise MembershipError(f"node {node} is already a member")
        self._live.add(node)
        return self._advance(time, cause, detail or f"node {node} joined")

    def drain(
        self, node: int, time: float, cause: str = "drain", detail: str = ""
    ) -> EpochRecord:
        """Voluntarily retire a live member (refuses to empty the set)."""
        self._check_node(node, self.pool_size)
        if node not in self._live:
            raise MembershipError(f"node {node} is not a member")
        if len(self._live) == 1:
            raise MembershipError(
                f"draining node {node} would leave the cluster empty"
            )
        self._live.discard(node)
        return self._advance(time, cause, detail or f"node {node} drained")

    def leave(
        self, node: int, time: float, detail: str = ""
    ) -> EpochRecord | None:
        """Involuntary removal (rank kill); tolerant of unknown nodes and,
        unlike :meth:`drain`, allowed to empty the live set — the driver
        aborts the job in that case."""
        if node not in self._live:
            return None
        self._live.discard(node)
        return self._advance(
            time, "rank-kill", detail or f"node {node} killed"
        )


@dataclass(frozen=True)
class MembershipEvent:
    """One scheduled membership transition (declarative or autoscaled)."""

    time: float
    action: str  # "join" | "drain"
    node: int
    cause: str = ""  # EpochRecord cause; defaults to the action
    detail: str = ""

    def __post_init__(self) -> None:
        if self.action not in ("join", "drain"):
            raise MembershipError(
                f"unknown membership action {self.action!r}"
            )


class MembershipSchedule:
    """Time-ordered queue of pending membership events.

    Declarative plan events are loaded up front; the autoscaler enqueues
    its decisions at run time.  Events become *due* once simulated time
    reaches them and are applied at the next epoch boundary.
    """

    def __init__(self, events: Iterable[MembershipEvent] = ()) -> None:
        self._seq = 0
        self._pending: list[tuple[float, int, MembershipEvent]] = []
        for ev in events:
            self.add(ev)

    def add(self, event: MembershipEvent) -> None:
        self._pending.append((event.time, self._seq, event))
        self._seq += 1
        self._pending.sort(key=lambda item: (item[0], item[1]))

    def __len__(self) -> int:
        return len(self._pending)

    def has_due(self, now: float) -> bool:
        return bool(self._pending) and self._pending[0][0] <= now

    def pop_due(self, now: float) -> list[MembershipEvent]:
        """Remove and return every event with ``time <= now`` in order."""
        due: list[MembershipEvent] = []
        while self._pending and self._pending[0][0] <= now:
            due.append(self._pending.pop(0)[2])
        return due


#: hard ceiling on membership epochs per job — a runaway reconfigure
#: loop (e.g. an autoscaler oscillating every boundary with zero
#: cooldown) aborts instead of spinning forever
MAX_EPOCHS = 512


class ElasticState:
    """Driver-side elasticity glue: the view, the schedule, and the
    (optional) autoscaler, plus the decision bookkeeping they share."""

    def __init__(
        self,
        view: ClusterView,
        schedule: MembershipSchedule,
        autoscaler: Any = None,
    ) -> None:
        self.view = view
        self.schedule = schedule
        self.autoscaler = autoscaler
        #: decision-audit log (``trace.audit``) the driver wires in so
        #: autoscaler decisions land next to the split decisions they
        #: react to, carrying their triggering metric values
        self.audit: Any = None
        #: (event, record) pairs applied so far, in application order
        self.applied: list[tuple[MembershipEvent, EpochRecord]] = []
        #: transitions skipped as invalid (join of a dead node, drain
        #: that would empty the cluster) — kept for the audit trail
        self.skipped: list[tuple[MembershipEvent, str]] = []
        self.autoscale_decisions = 0

    # -- epoch-boundary protocol ---------------------------------------
    def should_reconfigure(
        self, now: float, bank: Any, dead_nodes: set[int], iteration: int
    ) -> bool:
        """Called by the master at each iteration boundary.  Consults the
        declarative schedule, then lets the autoscaler look at the
        sampled series; autoscaler decisions are enqueued as membership
        events so one code path applies both."""
        if self.schedule.has_due(now):
            return True
        if self.autoscaler is not None and bank is not None:
            decision = self.autoscaler.evaluate(
                bank, now, self.view, dead_nodes, iteration
            )
            if decision is not None:
                self.autoscale_decisions += 1
                if self.audit is not None:
                    # every decision lands in the audit log with the
                    # metric values that triggered it (signals window)
                    self.audit.record(
                        kind=f"autoscale-{decision.action}",
                        node=f"n{decision.node}",
                        time=now,
                        iteration=iteration,
                        inputs=dict(decision.inputs),
                        outputs={
                            "action": decision.action,
                            "node": decision.node,
                            "reason": decision.reason,
                            "members_before": self.view.members(),
                        },
                    )
                self.schedule.add(
                    MembershipEvent(
                        time=decision.time,
                        action="join" if decision.action == "up" else "drain",
                        node=decision.node,
                        cause=f"autoscale-{decision.action}",
                        detail=decision.reason,
                    )
                )
                return True
        return self.schedule.has_due(now)

    def apply_due(
        self, now: float, dead_nodes: set[int]
    ) -> list[tuple[MembershipEvent, EpochRecord]]:
        """Apply every due transition to the view; invalid ones are
        skipped (recorded, never fatal — e.g. a ``join`` of a node that
        died first, or a ``drain`` that would empty the cluster)."""
        applied: list[tuple[MembershipEvent, EpochRecord]] = []
        for event in self.schedule.pop_due(now):
            try:
                if event.action == "join":
                    if event.node in dead_nodes:
                        raise MembershipError(
                            f"node {event.node} is dead and cannot join"
                        )
                    rec = self.view.join(
                        event.node, now, event.cause or "join", event.detail
                    )
                else:
                    rec = self.view.drain(
                        event.node, now, event.cause or "drain", event.detail
                    )
            except MembershipError as exc:
                self.skipped.append((event, str(exc)))
                continue
            applied.append((event, rec))
        self.applied.extend(applied)
        return applied

    def check_epoch_budget(self) -> None:
        if self.view.epoch > MAX_EPOCHS:
            raise RuntimeError(
                f"membership epoch count exceeded {MAX_EPOCHS} — "
                "reconfiguration loop is not converging"
            )
