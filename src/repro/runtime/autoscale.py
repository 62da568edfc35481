"""Closed-loop autoscaling over the sampled telemetry plane.

The :class:`Autoscaler` watches the PR 7 :class:`~repro.obs.timeseries.
MetricSampler` series at every iteration boundary and issues scale-up /
scale-down decisions against the membership layer
(:mod:`repro.runtime.membership`):

* **scale up** when the polling queues stay deep
  (``prs_policy_queue_depth_current``) or the device imbalance factor
  (``prs_device_imbalance``) exceeds its threshold — unless the
  interconnect is already saturated (``prs_link_utilization`` veto:
  more ranks would add shuffle traffic a hot wire cannot carry);
* **scale down** when the mean device busy fraction
  (``prs_device_busy_fraction``) says the cluster is over-provisioned.

Decisions are pure functions of the sampled history (windowed means /
maxima over ``[now - window, now]``), so identical runs make identical
decisions; every decision carries the metric values that triggered it
and the driver records them in the decision-audit log
(:class:`repro.obs.analyze.audit.DecisionLog`, kind
``autoscale-up`` / ``autoscale-down``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Any

from repro._validation import (
    require_nonnegative,
    require_positive,
    require_positive_int,
)
from repro.obs.metrics import POLICY_QUEUE_DEPTH_CURRENT
from repro.obs.timeseries import (
    DEVICE_BUSY_FRACTION,
    DEVICE_IMBALANCE,
    LINK_UTILIZATION,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.timeseries import SeriesBank
    from repro.runtime.membership import ClusterView

#: audit-log kinds recorded for autoscaler decisions
AUTOSCALE_KINDS = ("autoscale-up", "autoscale-down")


@dataclass(frozen=True)
class AutoscalePolicy:
    """Knobs of the closed-loop autoscaler (docs/FAULTS.md "Elasticity").

    All times are simulated seconds.  ``max_nodes=None`` allows growth
    up to the full node pool of the cluster handed to the runtime.
    """

    #: never drain below / grow above this many live ranks
    min_nodes: int = 1
    max_nodes: int | None = None
    #: lookback window for the triggering signals
    window_s: float = 5e-3
    #: minimum simulated time between two decisions
    cooldown_s: float = 10e-3
    #: scale up when the windowed peak queue depth reaches this ...
    scale_up_queue_depth: float = 8.0
    #: ... or the windowed mean imbalance factor reaches this.  The
    #: imbalance series compares *devices* (CPU vs GPU busy fractions),
    #: which on co-processing nodes sits in the 2-5 range even when the
    #: split is healthy — the default only fires on genuine stragglers.
    scale_up_imbalance: float = 6.0
    #: scale down when the windowed mean busy fraction falls below this
    scale_down_busy_fraction: float = 0.25
    #: veto scale-up while any link's windowed peak utilization is above
    scale_up_link_veto: float = 0.8
    #: iteration boundaries to skip before the first decision (lets the
    #: sampled series accumulate a meaningful window)
    warmup_iterations: int = 1

    def __post_init__(self) -> None:
        require_positive_int("min_nodes", self.min_nodes)
        if self.max_nodes is not None:
            require_positive_int("max_nodes", self.max_nodes)
            if self.max_nodes < self.min_nodes:
                raise ValueError(
                    f"max_nodes={self.max_nodes} < min_nodes={self.min_nodes}"
                )
        require_positive("window_s", self.window_s)
        require_nonnegative("cooldown_s", self.cooldown_s)
        require_positive("scale_up_queue_depth", self.scale_up_queue_depth)
        require_positive("scale_up_imbalance", self.scale_up_imbalance)
        require_nonnegative(
            "scale_down_busy_fraction", self.scale_down_busy_fraction
        )
        require_positive("scale_up_link_veto", self.scale_up_link_veto)
        require_nonnegative("warmup_iterations", self.warmup_iterations)

    @classmethod
    def coerce(cls, value: Any) -> "AutoscalePolicy":
        """Accept an AutoscalePolicy, a knob dict, or ``True``."""
        if isinstance(value, AutoscalePolicy):
            return value
        if value is True:
            return cls()
        if isinstance(value, dict):
            return cls(**value)
        raise ValueError(
            f"autoscale must be an AutoscalePolicy, a dict of knobs, or "
            f"True, got {value!r}"
        )


@dataclass(frozen=True)
class AutoscaleDecision:
    """One scale decision with the signal values that triggered it."""

    action: str  # "up" | "down"
    time: float
    node: int  # pool node to join (up) or drain (down)
    reason: str
    inputs: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "action": self.action,
            "time": self.time,
            "node": self.node,
            "reason": self.reason,
            "inputs": dict(self.inputs),
        }


class Autoscaler:
    """Evaluates :class:`AutoscalePolicy` against the sampled series."""

    def __init__(self, policy: AutoscalePolicy, pool_size: int) -> None:
        require_positive_int("pool_size", pool_size)
        self.policy = policy
        self.pool_size = pool_size
        self.max_nodes = min(
            policy.max_nodes if policy.max_nodes is not None else pool_size,
            pool_size,
        )
        self._last_decision_t: float | None = None
        #: every decision ever issued, in order (inspection/tests)
        self.decisions: list[AutoscaleDecision] = []

    # -- signal extraction ---------------------------------------------
    @staticmethod
    def _window_mean(
        bank: "SeriesBank", metric: str, t0: float, t1: float
    ) -> float | None:
        values = [
            v
            for s in bank.matching(metric, {})
            if (v := s.mean(t0, t1)) is not None
        ]
        if not values:
            return None
        return reduce(add, values, 0) / len(values)

    @staticmethod
    def _window_max(
        bank: "SeriesBank", metric: str, t0: float, t1: float
    ) -> float | None:
        values = [
            v
            for s in bank.matching(metric, {})
            if (v := s.vmax(t0, t1)) is not None
        ]
        if not values:
            return None
        return max(values)

    def signals(self, bank: "SeriesBank", now: float) -> dict[str, float]:
        """The windowed signal snapshot a decision is judged on."""
        t0 = now - self.policy.window_s
        out: dict[str, float] = {"time": now}
        qd = self._window_max(bank, POLICY_QUEUE_DEPTH_CURRENT, t0, now)
        if qd is not None:
            out["queue_depth"] = qd
        imb = self._window_mean(bank, DEVICE_IMBALANCE, t0, now)
        if imb is not None:
            out["imbalance"] = imb
        busy = self._window_mean(bank, DEVICE_BUSY_FRACTION, t0, now)
        if busy is not None:
            out["busy_fraction"] = busy
        link = self._window_max(bank, LINK_UTILIZATION, t0, now)
        if link is not None:
            out["link_utilization"] = link
        return out

    # -- decision ------------------------------------------------------
    def evaluate(
        self,
        bank: "SeriesBank",
        now: float,
        view: "ClusterView",
        dead_nodes: set[int],
        iteration: int,
    ) -> AutoscaleDecision | None:
        """One closed-loop step; returns a decision or None.

        Deterministic: depends only on the sampled history and the
        current view, never on wall-clock or random state.
        """
        policy = self.policy
        if iteration < policy.warmup_iterations:
            return None
        if (
            self._last_decision_t is not None
            and now - self._last_decision_t < policy.cooldown_s
        ):
            return None
        signals = self.signals(bank, now)
        live = view.live
        n_live = len(live)

        decision: AutoscaleDecision | None = None
        queue_depth = signals.get("queue_depth", 0.0)
        imbalance = signals.get("imbalance", 0.0)
        link = signals.get("link_utilization", 0.0)
        busy = signals.get("busy_fraction")

        pressed = (
            queue_depth >= policy.scale_up_queue_depth
            or imbalance >= policy.scale_up_imbalance
        )
        if pressed and n_live < self.max_nodes and link < policy.scale_up_link_veto:
            candidates = [
                n
                for n in range(self.pool_size)
                if n not in live and n not in dead_nodes
            ]
            if candidates:
                trigger = (
                    f"queue_depth={queue_depth:.3g}"
                    if queue_depth >= policy.scale_up_queue_depth
                    else f"imbalance={imbalance:.3g}"
                )
                decision = AutoscaleDecision(
                    action="up",
                    time=now,
                    node=candidates[0],
                    reason=f"scale up: {trigger} (link={link:.3g})",
                    inputs=signals,
                )
        elif (
            busy is not None
            and busy < policy.scale_down_busy_fraction
            and n_live > policy.min_nodes
        ):
            victim = max(live)
            decision = AutoscaleDecision(
                action="down",
                time=now,
                node=victim,
                reason=(
                    f"scale down: busy_fraction={busy:.3g} < "
                    f"{policy.scale_down_busy_fraction:.3g}"
                ),
                inputs=signals,
            )

        if decision is not None:
            self._last_decision_t = now
            self.decisions.append(decision)
        return decision
