"""Cross-rank communication graph over matched send/recv spans.

``comm/mpi.py`` stamps every delivered message with a ``msg_id`` that
appears on exactly two spans: the sender's ``net`` span (covering the
whole delivery effort — wire time, retransmit timers, injected fault
delays) and the receiver's ``recv`` span (covering the receiver's actual
blocked wait).  This module pairs them back up into :class:`Message`
edges and derives the three views the ISSUE asks for:

* a **happens-before graph**: each message is a cross-rank edge
  ``send.start -> recv.end``, and :meth:`CommGraph.check` verifies the
  ordering invariants that make it acyclic (a receive can never complete
  before its message became visible);
* a **comm matrix**: messages/bytes per ``src x dst x tag-class``
  (:meth:`CommGraph.matrix`), the span-level twin of the
  ``prs_comm_bytes_total{src,dst,tag,link}`` counters;
* a **network timeline**: per-link busy intervals and utilization
  (:meth:`CommGraph.link_timeline`, :meth:`LinkUse.utilization`), built
  from the overlap-merged send spans of each ``src_node -> dst_node``
  link.

Everything here reads span *attrs* only — never :mod:`repro.comm.mpi`
itself — so the module works identically on a live tracer and on one
reloaded from a saved run (``repro.obs.profile.load_profile``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import IntervalUnion
from repro.obs.spans import Span, SpanTracer

#: span categories carrying comm attrs (see RankComm.send / _finish_recv)
SEND_CATEGORY = "net"
RECV_CATEGORY = "recv"


@dataclass(frozen=True)
class Message:
    """One delivered message: a happens-before edge between two ranks.

    ``recv_span_id`` is ``None`` for a message that was sent but whose
    receive never completed inside the traced window (e.g. the epoch
    aborted first); such messages still count in the matrix — the bytes
    crossed the wire — but contribute no happens-before edge.
    """

    msg_id: int
    src: int
    dst: int
    src_node: int
    dst_node: int
    tag: int
    tag_class: str
    nbytes: float
    link: str
    send_span_id: int
    sent_at: float
    visible_at: float
    recv_span_id: int | None = None
    recv_start: float | None = None
    recv_end: float | None = None
    retransmits: int = 0
    delay_s: float = 0.0
    #: analytic fault-free wire time (alpha + n*beta); 0 for local links
    pred_s: float = 0.0


@dataclass(frozen=True)
class LinkUse:
    """Overlap-merged busy profile of one ``src_node -> dst_node`` link."""

    src_node: int
    dst_node: int
    busy_s: float
    nbytes: float
    messages: int
    intervals: tuple[tuple[float, float], ...]
    #: summed analytic wire time — busy_s/pred_s > 1 means the link ran
    #: slower than the fault-free alpha/beta model (contention, faults)
    pred_s: float = 0.0

    def utilization(self, makespan: float) -> float:
        if makespan <= 0:
            return 0.0
        return self.busy_s / makespan

    def to_dict(self, makespan: float | None = None) -> dict[str, Any]:
        out: dict[str, Any] = {
            "src_node": self.src_node,
            "dst_node": self.dst_node,
            "busy_s": self.busy_s,
            "nbytes": self.nbytes,
            "messages": self.messages,
            "intervals": [list(iv) for iv in self.intervals],
            "pred_s": self.pred_s,
        }
        if makespan is not None:
            out["utilization"] = self.utilization(makespan)
        return out


@dataclass(frozen=True)
class CommGraph:
    """All message edges of one run plus the pairing leftovers."""

    messages: tuple[Message, ...]
    #: recv spans whose msg_id matched no send span (a profile defect)
    unpaired_recv_span_ids: tuple[int, ...] = ()
    #: recv spans that expired (CommTimeout) — annotations, never edges
    timeout_span_ids: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.messages)

    @property
    def by_recv_span(self) -> dict[int, Message]:
        """Recv span id -> message, the lookup the critical path walks."""
        return {
            m.recv_span_id: m
            for m in self.messages
            if m.recv_span_id is not None
        }

    @property
    def total_bytes(self) -> float:
        return sum(m.nbytes for m in self.messages)

    @property
    def total_retransmits(self) -> int:
        return sum(m.retransmits for m in self.messages)

    def edges(self) -> list[tuple[int, int]]:
        """Happens-before edges as ``(send_span_id, recv_span_id)``."""
        return [
            (m.send_span_id, m.recv_span_id)
            for m in self.messages
            if m.recv_span_id is not None
        ]

    def matrix(self) -> dict[tuple[int, int, str], dict[str, float]]:
        """``(src, dst, tag_class) -> {"messages": n, "bytes": b}``."""
        out: dict[tuple[int, int, str], dict[str, float]] = {}
        for m in self.messages:
            cell = out.setdefault(
                (m.src, m.dst, m.tag_class), {"messages": 0.0, "bytes": 0.0}
            )
            cell["messages"] += 1
            cell["bytes"] += m.nbytes
        return dict(sorted(out.items()))

    def link_timeline(self) -> list[LinkUse]:
        """Per-link busy profile, remote links only, busiest first.

        Same-node messages never touch a wire (``link == "local"``), so
        only cross-node sends contribute.
        """
        unions: dict[tuple[int, int], IntervalUnion] = {}
        nbytes: dict[tuple[int, int], float] = {}
        counts: dict[tuple[int, int], int] = {}
        preds: dict[tuple[int, int], float] = {}
        for m in self.messages:
            if m.link != "remote":
                continue
            key = (m.src_node, m.dst_node)
            unions.setdefault(key, IntervalUnion()).add(
                m.sent_at, m.visible_at
            )
            nbytes[key] = nbytes.get(key, 0.0) + m.nbytes
            counts[key] = counts.get(key, 0) + 1
            preds[key] = preds.get(key, 0.0) + m.pred_s
        uses = [
            LinkUse(
                src_node=src,
                dst_node=dst,
                busy_s=union.total,
                nbytes=nbytes[(src, dst)],
                messages=counts[(src, dst)],
                intervals=tuple(union.intervals()),
                pred_s=preds[(src, dst)],
            )
            for (src, dst), union in unions.items()
        ]
        uses.sort(key=lambda u: (-u.busy_s, u.src_node, u.dst_node))
        return uses

    def check(self, tol: float = 1e-6) -> list[str]:
        """Happens-before consistency problems (empty = healthy).

        The graph is acyclic by construction when every edge respects
        simulated time: a message becomes visible no earlier than it was
        sent, and its receive completes no earlier than it became
        visible.  Pairing defects (unmatched recv spans, duplicate ids)
        are surfaced by :func:`build_comm_graph` into
        ``unpaired_recv_span_ids`` and reported here.
        """
        problems: list[str] = []
        for m in self.messages:
            if m.visible_at < m.sent_at - tol:
                problems.append(
                    f"msg {m.msg_id} r{m.src}->r{m.dst}: visible at "
                    f"{m.visible_at:.6e}s before sent at {m.sent_at:.6e}s"
                )
            if m.recv_end is not None and m.recv_end < m.visible_at - tol:
                problems.append(
                    f"msg {m.msg_id} r{m.src}->r{m.dst}: received at "
                    f"{m.recv_end:.6e}s before visible at "
                    f"{m.visible_at:.6e}s (happens-before violated)"
                )
        if self.unpaired_recv_span_ids:
            problems.append(
                f"{len(self.unpaired_recv_span_ids)} recv span(s) pair "
                "with no send span: "
                + ", ".join(map(str, self.unpaired_recv_span_ids[:5]))
                + ("..." if len(self.unpaired_recv_span_ids) > 5 else "")
            )
        return problems

    def to_dict(self, makespan: float | None = None) -> dict[str, Any]:
        return {
            "messages": len(self.messages),
            "paired": len(self.edges()),
            "bytes": self.total_bytes,
            "retransmits": self.total_retransmits,
            "timeouts": len(self.timeout_span_ids),
            "unpaired_recvs": len(self.unpaired_recv_span_ids),
            "matrix": [
                {
                    "src": src,
                    "dst": dst,
                    "tag_class": tagc,
                    "messages": cell["messages"],
                    "bytes": cell["bytes"],
                }
                for (src, dst, tagc), cell in self.matrix().items()
            ],
            "links": [u.to_dict(makespan) for u in self.link_timeline()],
        }


def build_comm_graph(tracer: SpanTracer) -> CommGraph:
    """Pair send and recv spans by ``msg_id`` into a :class:`CommGraph`.

    Only closed spans participate (analysis runs on finished traces).
    A send span with no matching recv stays an unreceived message; a
    recv span with no matching send lands in ``unpaired_recv_span_ids``
    — under the 1:1 pairing contract of ``comm/mpi.py`` that can only
    mean a corrupted or truncated profile.
    """
    sends: dict[int, Span] = {}
    recvs: dict[int, Span] = {}
    timeouts: list[int] = []
    for span in tracer.spans:
        if span.end is None:
            continue
        msg_id = span.attrs.get("msg_id")
        if span.category == SEND_CATEGORY and msg_id is not None:
            sends[int(msg_id)] = span
        elif span.category == RECV_CATEGORY:
            if span.attrs.get("timeout"):
                timeouts.append(span.span_id)
            elif msg_id is not None:
                recvs[int(msg_id)] = span
    messages: list[Message] = []
    for msg_id in sorted(sends):
        send = sends[msg_id]
        recv = recvs.pop(msg_id, None)
        a = send.attrs
        messages.append(
            Message(
                msg_id=msg_id,
                src=int(a.get("src", -1)),
                dst=int(a.get("dst", -1)),
                src_node=int(a.get("src_node", a.get("src", -1))),
                dst_node=int(a.get("dst_node", a.get("dst", -1))),
                tag=int(a.get("tag", 0)),
                tag_class=str(a.get("tagc", "p2p")),
                nbytes=float(a.get("nbytes", 0.0)),
                link=str(a.get("link", "remote")),
                send_span_id=send.span_id,
                sent_at=send.start,
                visible_at=send.end,  # type: ignore[arg-type]
                recv_span_id=recv.span_id if recv is not None else None,
                recv_start=recv.start if recv is not None else None,
                recv_end=recv.end if recv is not None else None,
                retransmits=int(a.get("retransmits", 0)),
                delay_s=float(a.get("delay_s", 0.0)),
                pred_s=float(a.get("pred_s", 0.0)),
            )
        )
    return CommGraph(
        messages=tuple(messages),
        unpaired_recv_span_ids=tuple(
            recvs[mid].span_id for mid in sorted(recvs)
        ),
        timeout_span_ids=tuple(timeouts),
    )
