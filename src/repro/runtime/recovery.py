"""Recovery policy knobs and failure-reporting types for fault-tolerant PRS.

This module is deliberately leaf-level (no imports from the rest of the
runtime) so that :mod:`repro.runtime.job`, the scheduler, the daemons and
the driver can all share these types without cycles.

The knobs mirror what MPI-level fault-tolerance stacks expose (ULFM's
revoke/shrink/agree; BLCR-style checkpoint intervals) scaled down to the
simulated PRS cluster:

* block-level: retry budget + exponential backoff for re-executing a
  failed map block on a surviving device;
* device-level: blacklist after ``blacklist_after`` failures and refit
  the Equation (8) split over the survivors;
* rank-level: heartbeat interval / miss factor for declaring a rank dead,
  checkpoint interval for iterative apps, and a restart budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro._validation import (
    require_nonnegative,
    require_nonnegative_int,
    require_positive,
    require_positive_int,
)


class NodeDeadError(RuntimeError):
    """Every map-capable device on a node is dead or blacklisted."""

    def __init__(self, node_index: int, node_name: str = "") -> None:
        self.node_index = node_index
        self.node_name = node_name
        label = node_name or f"#{node_index}"
        super().__init__(
            f"node {label}: no surviving device can run map blocks"
        )


class JobAbortedError(RuntimeError):
    """The job exhausted its recovery budget (retries or rank restarts)."""


@dataclass(frozen=True)
class FaultPolicy:
    """Tunable recovery behaviour (see docs/FAULTS.md for guidance).

    All times are simulated seconds.  Point-to-point receives block
    until their message or the epoch abort; dead ranks are detected by
    the heartbeat layer alone, which avoids spurious timeouts when
    backoff stretches an iteration.
    """

    #: attempts per block before the job aborts (first run + retries)
    max_block_retries: int = 3
    #: backoff before retry round ``r`` is ``base * factor**(r-1)``, capped
    backoff_base_s: float = 1e-3
    backoff_factor: float = 2.0
    backoff_max_s: float = 0.05
    #: failures on one device before it is blacklisted and the split refit
    blacklist_after: int = 2
    #: heartbeat cadence and how many missed beats declare a rank dead
    heartbeat_interval_s: float = 2e-3
    heartbeat_miss_factor: float = 10.0
    #: consecutive missed windows (each ``interval * miss_factor`` long)
    #: a monitor tolerates before declaring the peer dead; raise to ride
    #: out long link-degradation windows without a spurious restart
    heartbeat_missed_windows: int = 1
    #: iterative apps snapshot loop state every this many iterations
    checkpoint_interval: int = 1
    #: whole-job restarts-from-checkpoint allowed before aborting
    max_rank_restarts: int = 2
    #: master-led restart of dead ranks (False: a dead rank aborts the job)
    rank_recovery: bool = True
    #: wait before re-sending a dropped point-to-point message
    retransmit_timeout_s: float = 1e-3

    def __post_init__(self) -> None:
        require_positive_int("max_block_retries", self.max_block_retries)
        require_nonnegative("backoff_base_s", self.backoff_base_s)
        require_positive("backoff_factor", self.backoff_factor)
        require_nonnegative("backoff_max_s", self.backoff_max_s)
        require_positive_int("blacklist_after", self.blacklist_after)
        require_positive("heartbeat_interval_s", self.heartbeat_interval_s)
        require_positive("heartbeat_miss_factor", self.heartbeat_miss_factor)
        require_positive_int(
            "heartbeat_missed_windows", self.heartbeat_missed_windows
        )
        require_positive_int("checkpoint_interval", self.checkpoint_interval)
        require_nonnegative_int("max_rank_restarts", self.max_rank_restarts)
        require_positive("retransmit_timeout_s", self.retransmit_timeout_s)


@dataclass
class RecoveryState:
    """Driver-owned checkpoint store for iterative restart.

    The master's convergence phase calls :meth:`save` every
    ``interval`` iterations; after a rank failure the driver restores
    the app from ``state`` and resumes the loop at ``iteration``.
    """

    interval: int = 1
    iteration: int = 0
    state: Any = None
    checkpoints_taken: int = 0

    def save(self, iteration: int, state: Any) -> None:
        self.iteration = iteration
        self.state = state
        self.checkpoints_taken += 1


@dataclass(frozen=True)
class RecoverySummary:
    """What fault tolerance cost this job (attached to ``JobResult``)."""

    faults_injected: int = 0
    block_failures: int = 0
    #: total block re-executions; the live counterpart
    #: (``prs_recovery_blocks_retried_total``) is sampled into a time
    #: series, where the builtin ``retry-storm`` alert rule
    #: (:func:`repro.obs.rules.builtin_rules`) watches for bursts
    blocks_retried: int = 0
    devices_blacklisted: int = 0
    split_refits: int = 0
    checkpoints: int = 0
    rank_restarts: int = 0
    comm_timeouts: int = 0
    retransmits: int = 0
    heartbeats: int = 0
    dead_nodes: tuple[int, ...] = field(default_factory=tuple)
    #: elastic membership accounting (all zero / empty for jobs without
    #: membership events): planned transitions by kind, autoscaler
    #: decisions issued, and the full epoch timeline — one
    #: :class:`~repro.runtime.membership.EpochRecord` per transition
    #: (including involuntary rank-kill epochs), ``()`` when the job
    #: never tracked membership
    joins: int = 0
    drains: int = 0
    autoscale_decisions: int = 0
    epochs: tuple = field(default_factory=tuple)
    #: flight-recorder snapshots (:class:`repro.obs.log.FlightDump`)
    #: taken when a fault fired, an alert rule tripped, or a membership
    #: epoch bumped; ``()`` unless the job ran with ``log_level`` set
    flight_dumps: tuple = field(default_factory=tuple)

    @property
    def clean(self) -> bool:
        """True when no fault fired and no recovery action was taken.

        Planned membership transitions (joins/drains) do *not* make a
        run unclean — they are scheduled behaviour, not failures.
        """
        return (
            self.faults_injected == 0
            and self.block_failures == 0
            and self.rank_restarts == 0
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (tuples become lists, ``clean`` included)."""
        return {
            "faults_injected": self.faults_injected,
            "block_failures": self.block_failures,
            "blocks_retried": self.blocks_retried,
            "devices_blacklisted": self.devices_blacklisted,
            "split_refits": self.split_refits,
            "checkpoints": self.checkpoints,
            "rank_restarts": self.rank_restarts,
            "comm_timeouts": self.comm_timeouts,
            "retransmits": self.retransmits,
            "heartbeats": self.heartbeats,
            "dead_nodes": list(self.dead_nodes),
            "joins": self.joins,
            "drains": self.drains,
            "autoscale_decisions": self.autoscale_decisions,
            "epochs": [e.to_dict() for e in self.epochs],
            "flight_dumps": [f.to_dict() for f in self.flight_dumps],
            "clean": self.clean,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RecoverySummary":
        """Inverse of :meth:`to_dict` (ignores the derived ``clean``)."""
        from repro.obs.log import FlightDump
        from repro.runtime.membership import EpochRecord

        return cls(
            faults_injected=int(d.get("faults_injected", 0)),
            block_failures=int(d.get("block_failures", 0)),
            blocks_retried=int(d.get("blocks_retried", 0)),
            devices_blacklisted=int(d.get("devices_blacklisted", 0)),
            split_refits=int(d.get("split_refits", 0)),
            checkpoints=int(d.get("checkpoints", 0)),
            rank_restarts=int(d.get("rank_restarts", 0)),
            comm_timeouts=int(d.get("comm_timeouts", 0)),
            retransmits=int(d.get("retransmits", 0)),
            heartbeats=int(d.get("heartbeats", 0)),
            dead_nodes=tuple(int(n) for n in d.get("dead_nodes", ())),
            joins=int(d.get("joins", 0)),
            drains=int(d.get("drains", 0)),
            autoscale_decisions=int(d.get("autoscale_decisions", 0)),
            epochs=tuple(
                EpochRecord.from_dict(e) for e in d.get("epochs", ())
            ),
            flight_dumps=tuple(
                FlightDump.from_dict(f) for f in d.get("flight_dumps", ())
            ),
        )
