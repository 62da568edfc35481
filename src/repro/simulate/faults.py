"""Seeded, declarative fault injection for the simulated PRS cluster.

A :class:`FaultPlan` turns compact spec strings (or dicts) into a fixed
tuple of :class:`FaultEvent`\\ s at job-construction time; any ranged
parameter (``t=0.1~0.5``) is sampled once, with a seeded RNG, in spec
order — so the same plan + seed always yields the same schedule and runs
stay bit-reproducible.

Spec grammar (see docs/FAULTS.md for the full reference)::

    kind@target[:key=value[,key=value...]]

    gpu_kill@NODE[.GPU]:t=T        permanently kill one GPU daemon
    cpu_kill@NODE:t=T              permanently kill a node's CPU daemon
    gpu_hiccup@NODE[.GPU]:t=T      transient fault: in-flight block dies,
    cpu_hiccup@NODE:t=T            device survives (counts toward blacklist)
    rank_kill@NODE:t=T             fail the whole rank (all devices + procs)
    straggler@NODE.cpu:factor=F,t0=A,t1=B     rate multiplier window
    straggler@NODE.gpuK:factor=F,t0=A,t1=B
    pcie_slow@NODE:factor=F,t0=A,t1=B         PCI-E occupancy multiplier
    net_slow@*:factor=F,t0=A,t1=B             network wire-time multiplier
    msg_delay@SRC-DEST:delay=D,t0=A,t1=B      extra latency per message
    msg_drop@SRC-DEST:count=N,t0=A            drop next N messages
    join@NODE:t=T                  membership: node joins the live set
    drain@NODE:t=T                 membership: node retires gracefully

``*`` matches any node in SRC/DEST positions.  Any float value may be a
range ``lo~hi`` sampled uniformly from the plan's seed.

Membership events (``join``/``drain``) are carried by the plan but never
injected by :class:`FaultState` — the elastic driver applies them at
iteration boundaries through :mod:`repro.runtime.membership` (see
docs/FAULTS.md "Elasticity").

Delivery: timed kill/hiccup events are injected by one DES process each
(spawned once at job start), which marks the device dead and fires its
*disruption event*; a fault-aware daemon races every in-flight block
against that event and interrupts the block's process through the
ordinary :class:`~repro.simulate.engine.Interrupt` machinery.  Window
faults (stragglers, bandwidth degradation, message faults) are pure
functions of simulated time consulted at dispatch points, so a plan with
no events changes nothing at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.simulate.engine import Engine, Event, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.recovery import FaultPolicy
    from repro.simulate.trace import Trace


class FaultSpecError(ValueError):
    """A fault spec string/dict could not be parsed."""


class DeviceFault(Exception):
    """Cause attached to the Interrupt delivered to a dying block."""

    def __init__(self, device: str, kind: str = "kill") -> None:
        self.device = device
        self.kind = kind
        super().__init__(f"{kind} on device {device}")


class RankFault(Exception):
    """Cause attached to the Interrupt delivered to a killed rank."""

    def __init__(self, node: int) -> None:
        self.node = node
        super().__init__(f"rank on node {node} killed")


_KILL_KINDS = frozenset({"gpu_kill", "cpu_kill", "rank_kill"})
_HICCUP_KINDS = frozenset({"gpu_hiccup", "cpu_hiccup"})
_WINDOW_KINDS = frozenset(
    {"straggler", "pcie_slow", "net_slow", "msg_delay", "msg_drop"}
)
#: elastic membership transitions — parsed and scheduled like faults,
#: applied by the driver at iteration boundaries, never by FaultState
MEMBERSHIP_KINDS = frozenset({"join", "drain"})
KNOWN_KINDS = _KILL_KINDS | _HICCUP_KINDS | _WINDOW_KINDS | MEMBERSHIP_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One normalized fault; times are simulated seconds."""

    kind: str
    time: float = 0.0
    until: float = math.inf
    node: int | None = None
    gpu: int | None = None
    device: str | None = None  # "cpu" | "gpuK" for stragglers
    src: int | None = None  # message faults; None = any
    dest: int | None = None
    factor: float = 1.0
    delay: float = 0.0
    count: int = 1

    def spec(self) -> str:
        """The ``kind@target:t=T`` form of this event, for messages."""
        if self.kind in ("msg_delay", "msg_drop"):
            src = "*" if self.src is None else self.src
            target = f"{src}-{'*' if self.dest is None else self.dest}"
        elif self.node is None:
            target = "*"
        elif self.device is not None:
            target = f"{self.node}.{self.device}"
        elif self.gpu is not None:
            target = f"{self.node}.{self.gpu}"
        else:
            target = str(self.node)
        return f"{self.kind}@{target}:t={self.time:g}"

    def device_key(self) -> str:
        """Fault-state key of the targeted device (kill/hiccup/straggler)."""
        assert self.node is not None
        if self.device is not None:
            return f"n{self.node}.{self.device}"
        if self.kind.startswith("gpu"):
            return f"n{self.node}.gpu{self.gpu or 0}"
        return f"n{self.node}.cpu"


def _fail(message: str, spec: Any, pos: int | None) -> None:
    """Raise a :class:`FaultSpecError` that quotes the offending spec
    and the character position of the bad token (``pos=None`` for dict
    specs, where offsets are meaningless)."""
    if pos is None:
        raise FaultSpecError(f"{message} in spec {spec!r}")
    raise FaultSpecError(f"{message} in spec {spec!r} at position {pos}")


def _sample(
    value: str,
    rng: np.random.Generator,
    spec: Any = None,
    pos: int | None = None,
) -> float:
    """Parse a float or a ``lo~hi`` uniform range."""
    if "~" in value:
        lo_s, hi_s = value.split("~", 1)
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            _fail(f"malformed range {value!r}", spec, pos)
        if hi < lo:
            _fail(f"empty range {value!r} (hi < lo)", spec, pos)
        return float(rng.uniform(lo, hi))
    try:
        return float(value)
    except ValueError:
        _fail(f"malformed number {value!r}", spec, pos)
        raise AssertionError("unreachable")  # pragma: no cover


def _int_field(label: str, text: str, spec: Any, pos: int | None) -> int:
    try:
        return int(text)
    except ValueError:
        _fail(f"{label} must be an integer, got {text!r}", spec, pos)
        raise AssertionError("unreachable")  # pragma: no cover


def _parse_target(
    kind: str, target: str, spec: Any = None, pos: int | None = None
) -> dict[str, Any]:
    """Interpret the ``@target`` part for each fault kind.

    *spec*/*pos* locate the target inside the original spec string so
    parse errors can quote exactly where they happened.
    """
    out: dict[str, Any] = {}
    if kind in ("msg_delay", "msg_drop"):
        if "-" not in target:
            _fail(f"{kind} needs a SRC-DEST target, got {target!r}", spec, pos)
        src_s, dest_s = target.split("-", 1)
        out["src"] = (
            None if src_s == "*" else _int_field("SRC", src_s, spec, pos)
        )
        out["dest"] = (
            None if dest_s == "*" else _int_field("DEST", dest_s, spec, pos)
        )
        return out
    if kind == "net_slow":
        if target not in ("", "*"):
            _fail(
                f"net_slow targets the whole network; use '*', got {target!r}",
                spec,
                pos,
            )
        return out
    if kind == "straggler":
        if "." not in target:
            _fail(
                f"straggler needs NODE.cpu or NODE.gpuK, got {target!r}",
                spec,
                pos,
            )
        node_s, dev = target.split(".", 1)
        if dev != "cpu" and not (dev.startswith("gpu") and dev[3:].isdigit()):
            _fail(f"unknown straggler device {dev!r}", spec, pos)
        out["node"] = _int_field("NODE", node_s, spec, pos)
        out["device"] = dev
        return out
    # node-targeted kinds; gpu kinds accept NODE.GPU
    if "." in target and kind in ("gpu_kill", "gpu_hiccup"):
        node_s, gpu_s = target.split(".", 1)
        out["node"] = _int_field("NODE", node_s, spec, pos)
        out["gpu"] = _int_field("GPU", gpu_s, spec, pos)
    else:
        out["node"] = _int_field("node target", target, spec, pos)
        if kind in ("gpu_kill", "gpu_hiccup"):
            out["gpu"] = 0
    return out


_PARAM_ALIASES = {"t": "time", "t0": "time", "t1": "until", "at": "time"}
_FLOAT_PARAMS = frozenset({"time", "until", "factor", "delay"})


def parse_fault_spec(
    spec: str | Mapping[str, Any], rng: np.random.Generator
) -> FaultEvent:
    """Normalize one spec string or dict into a :class:`FaultEvent`.

    Parse errors quote the offending spec and — for string specs — the
    character position of the bad token, so a typo inside a long
    ``--faults`` list is findable without bisecting the plan.
    """
    #: (raw_key, value, position-of-item) triples to normalize
    positions: dict[str, int | None] = {}
    if isinstance(spec, Mapping):
        params = dict(spec)
        kind = params.pop("kind", None)
        if kind not in KNOWN_KINDS:
            _fail(
                f"unknown fault kind {kind!r}; known kinds: "
                + ", ".join(sorted(KNOWN_KINDS)),
                spec,
                None,
            )
    else:
        text = spec.strip()
        base = len(spec) - len(spec.lstrip())  # offset of text within spec
        head, _, tail = text.partition(":")
        kind, at, target = head.partition("@")
        kind = kind.strip()
        if kind not in KNOWN_KINDS:
            _fail(
                f"unknown fault kind {kind!r}; known kinds: "
                + ", ".join(sorted(KNOWN_KINDS)),
                spec,
                base,
            )
        target_pos = base + len(kind) + len(at)
        params = _parse_target(kind, target.strip(), spec, target_pos)
        cursor = base + len(head) + 1  # first char after ':'
        for part in tail.split(","):
            item = part.strip()
            item_pos = cursor + (len(part) - len(part.lstrip()))
            cursor += len(part) + 1
            if not item:
                continue
            if "=" not in item:
                _fail(
                    f"malformed parameter {item!r} (expected key=value)",
                    spec,
                    item_pos,
                )
            key, _, value = item.partition("=")
            params[key.strip()] = value.strip()
            positions[key.strip()] = item_pos

    fields_: dict[str, Any] = {"kind": kind}
    for raw_key, value in params.items():
        key = _PARAM_ALIASES.get(raw_key, raw_key)
        pos = positions.get(raw_key)
        if key not in FaultEvent.__dataclass_fields__ or key == "kind":
            _fail(f"unknown parameter {raw_key!r} for {kind}", spec, pos)
        if key in _FLOAT_PARAMS and isinstance(value, str):
            value = _sample(value, rng, spec, pos)
        elif key == "count" and isinstance(value, str):
            value = _int_field("count", value, spec, pos)
        elif isinstance(value, str) and value.isdigit():
            value = int(value)
        fields_[key] = value

    event = FaultEvent(**fields_)
    needs_node = _KILL_KINDS | _HICCUP_KINDS | MEMBERSHIP_KINDS | {
        "straggler",
        "pcie_slow",
    }
    if event.kind in needs_node and event.node is None:
        _fail(f"{kind} needs a node target", spec, None)
    if event.kind == "straggler" and event.device is None:
        _fail("straggler needs NODE.cpu or NODE.gpuK", spec, None)
    if event.until < event.time:
        _fail(
            f"window ends before it starts: t0={event.time}, t1={event.until}",
            spec,
            None,
        )
    if event.factor <= 0.0:
        _fail(f"factor must be > 0, got {event.factor}", spec, None)
    return event


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, pre-sampled schedule of faults."""

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __bool__(self) -> bool:
        return bool(self.events)

    def membership_events(self) -> tuple[FaultEvent, ...]:
        """The plan's ``join``/``drain`` events, in spec order (the
        elastic driver schedules these; FaultState ignores them)."""
        return tuple(
            e for e in self.events if e.kind in MEMBERSHIP_KINDS
        )

    def check_targets(self, gpus_per_node: Sequence[int]) -> None:
        """Raise :class:`FaultSpecError` naming the first event whose node,
        GPU or message endpoint lies outside a cluster whose node ``i``
        engages ``gpus_per_node[i]`` GPUs."""
        n_nodes = len(gpus_per_node)
        for event in self.events:
            for label in ("node", "src", "dest"):
                value = getattr(event, label)
                if value is not None and not 0 <= value < n_nodes:
                    raise FaultSpecError(
                        f"fault event {event.spec()} targets {label} "
                        f"{value}, outside the cluster's nodes [0, {n_nodes})"
                    )
            gpu = event.gpu
            if event.device is not None and event.device.startswith("gpu"):
                gpu = int(event.device[3:])
            if gpu is not None and event.node is not None:
                n_gpus = gpus_per_node[event.node]
                if not 0 <= gpu < n_gpus:
                    raise FaultSpecError(
                        f"fault event {event.spec()} targets gpu {gpu}, "
                        f"outside node {event.node}'s GPUs [0, {n_gpus})"
                    )

    @classmethod
    def from_specs(
        cls, specs: Iterable[str | Mapping[str, Any]], seed: int = 0
    ) -> "FaultPlan":
        rng = np.random.default_rng(seed)
        events = tuple(parse_fault_spec(s, rng) for s in specs)
        return cls(events=events, seed=seed)

    @classmethod
    def coerce(cls, value: Any, seed: int = 0) -> "FaultPlan":
        """Accept None / FaultPlan / one spec / a sequence of specs."""
        if value is None:
            return cls(seed=seed)
        if isinstance(value, FaultPlan):
            return value
        if isinstance(value, (str, Mapping)):
            return cls.from_specs([value], seed=seed)
        return cls.from_specs(value, seed=seed)


class FaultState:
    """Live fault bookkeeping shared by the driver, daemons and comm layer.

    One instance spans the whole job (across rank-restart incarnations):
    injector processes are spawned exactly once, and at fire time consult
    the *current* registrations — so a device killed in incarnation 1
    stays dead in incarnation 2, and a rank kill always lands on the
    processes of the incarnation that is actually running.
    """

    def __init__(
        self,
        engine: Engine,
        plan: FaultPlan,
        trace: "Trace",
        policy: "FaultPolicy",
    ) -> None:
        self.engine = engine
        self.plan = plan
        self.trace = trace
        self.policy = policy
        self.dead_devices: set[str] = set()
        self.dead_nodes: set[int] = set()
        #: node -> processes of the current incarnation to interrupt on
        #: a rank kill (worker mains plus heartbeat helpers)
        self._rank_procs: dict[int, list[Process]] = {}
        #: node -> device keys wired in the current incarnation
        self._node_devices: dict[int, list[str]] = {}
        #: device key -> pending disruption event (created lazily; replaced
        #: after each firing so hiccups can strike the same device again)
        self._disruptions: dict[str, Event] = {}
        #: kind -> (plan index, event) pairs in plan order, so each
        #: window query scans only the events of its own kind
        self._by_kind: dict[str, list[tuple[int, FaultEvent]]] = {}
        for index, event in enumerate(plan.events):
            self._by_kind.setdefault(event.kind, []).append((index, event))
        #: remaining drop budget per msg_drop event (keyed by plan index)
        self._drops_left: dict[int, int] = {
            i: ev.count for i, ev in self._by_kind.get("msg_drop", ())
        }
        self._started = False

    # -- wiring --------------------------------------------------------
    @staticmethod
    def device_key(node: int, device: str) -> str:
        return f"n{node}.{device}"

    def register_devices(self, node: int, keys: list[str]) -> None:
        self._node_devices[node] = list(keys)

    def reset_rank_procs(self) -> None:
        self._rank_procs.clear()

    def register_rank_proc(self, node: int, proc: Process) -> None:
        self._rank_procs.setdefault(node, []).append(proc)

    def start(self) -> None:
        """Spawn one injector process per timed kill/hiccup event."""
        if self._started:
            return
        self._started = True
        for index, event in enumerate(self.plan.events):
            if event.kind in _KILL_KINDS or event.kind in _HICCUP_KINDS:
                self.engine.process(
                    self._inject(event), name=f"fault{index}.{event.kind}"
                )

    # -- injection -----------------------------------------------------
    def disruption(self, key: str) -> Event:
        """The event a fault-aware daemon races its in-flight block against."""
        evt = self._disruptions.get(key)
        if evt is None:
            evt = self.engine.event()
            self._disruptions[key] = evt
        return evt

    def device_dead(self, key: str) -> bool:
        return key in self.dead_devices

    def _fire(self, key: str, cause: DeviceFault) -> None:
        evt = self._disruptions.pop(key, None)
        if evt is not None and not evt.triggered:
            evt.succeed(cause)

    def _inject(self, event: FaultEvent):
        delay = max(event.time - self.engine.now, 0.0)
        yield self.engine.timeout(delay)
        self.trace.metrics.counter(obs.RECOVERY_FAULTS_INJECTED).inc(
            1, kind=event.kind
        )
        target = (
            f"node {event.node}"
            if event.kind == "rank_kill"
            else event.device_key()
        )
        log = self.trace.log
        log.error(
            "faults",
            f"injecting {event.kind} on {target}",
            t=self.engine.now,
            rank=event.node,
            kind=event.kind,
        )
        log.dump("fault", f"{event.kind} on {target}", self.engine.now)
        if event.kind == "rank_kill":
            node = event.node
            assert node is not None
            self.dead_nodes.add(node)
            # Mark devices dead *before* interrupting the rank so work
            # pollers observing the device state drain immediately.
            for key in self._node_devices.get(node, []):
                self.dead_devices.add(key)
                self._fire(key, DeviceFault(key, "kill"))
            for proc in list(self._rank_procs.get(node, [])):
                if proc.is_alive:
                    proc.interrupt(RankFault(node))
            return
        key = event.device_key()
        if event.kind in _KILL_KINDS:
            self.dead_devices.add(key)
            self._fire(key, DeviceFault(key, "kill"))
        else:  # hiccup: one-shot disruption, device stays usable
            self._fire(key, DeviceFault(key, "hiccup"))

    # -- window faults (pure functions of time) ------------------------
    def compute_scale(self, key: str, now: float) -> float:
        """Duration multiplier for a block starting on device *key* now."""
        scale = 1.0
        for _, event in self._by_kind.get("straggler", ()):
            if event.device_key() == key and event.time <= now < event.until:
                scale *= max(event.factor, 1.0)
        return scale

    def net_scale(self, now: float) -> float:
        """Wire-time multiplier for the shared network at time *now*."""
        scale = 1.0
        for _, event in self._by_kind.get("net_slow", ()):
            if event.time <= now < event.until:
                scale *= max(event.factor, 1.0)
        return scale

    def pcie_scale(self, node: int, now: float) -> float:
        """PCI-E occupancy multiplier for *node* at time *now*."""
        scale = 1.0
        for _, event in self._by_kind.get("pcie_slow", ()):
            if event.node == node and event.time <= now < event.until:
                scale *= max(event.factor, 1.0)
        return scale

    def msg_delay(self, src: int, dest: int, now: float) -> float:
        """Extra latency for one src->dest message sent at time *now*."""
        total = 0.0
        for _, event in self._by_kind.get("msg_delay", ()):
            if (
                (event.src is None or event.src == src)
                and (event.dest is None or event.dest == dest)
                and event.time <= now < event.until
            ):
                total += max(event.delay, 0.0)
        return total

    def consume_drop(self, src: int, dest: int, now: float) -> bool:
        """True if a src->dest message sent now should be dropped."""
        for index, event in self._by_kind.get("msg_drop", ()):
            if (
                (event.src is None or event.src == src)
                and (event.dest is None or event.dest == dest)
                and event.time <= now < event.until
                and self._drops_left[index] > 0
            ):
                self._drops_left[index] -= 1
                return True
        return False

    # -- helpers -------------------------------------------------------
    def wire_node_links(self, node: int, links: Iterable[Any]) -> None:
        """Install the PCI-E degradation hook on a node's GPU links."""
        if not self._by_kind.get("pcie_slow", ()):
            return

        def scale(now: float, _node: int = node) -> float:
            return self.pcie_scale(_node, now)

        for link in links:
            link.time_scale = scale

