"""One SPMD iteration as the phase chain it is.

The paper's worker runs the same iteration every pass (§III.A.2):
broadcast → map → combine → shuffle → reduce → gather → convergence.
:class:`TaskGraph` holds those phases in order together with the
modelled bytes on each link, and :meth:`TaskGraph.run` runs them back to
back on one rank.  Each phase span is annotated with its place in the
chain (``dag_node``, ``dag_deps``, ``dag_edge``, ``dag_edge_bytes``); the
critical-path engine reads ``dag_edge`` to name the link the makespan
was blocked behind.  The bytes are annotations only: the phases already
pay every simulated cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.phases import Phase, PhaseContext
    from repro.simulate.engine import Event


class TaskGraph:
    """The per-iteration phases, in order, with ``(prev, name) -> bytes``
    for the links whose data volume is known."""

    def __init__(
        self,
        phases: Sequence["Phase"],
        edge_bytes: dict[tuple[str, str], float],
    ) -> None:
        self.phases = tuple(phases)
        self.edge_bytes = edge_bytes

    def run(self, ctx: "PhaseContext") -> Generator["Event", Any, None]:
        """Run every phase on one rank, in order; the driver calls this
        once per iteration.  Each phase after the first names its
        predecessor (``dag_deps``), the link from it (``dag_edge``) and,
        when known, the link's bytes (``dag_edge_bytes``)."""
        prev: str | None = None
        for phase in self.phases:
            attrs: dict[str, Any] = {"dag_node": phase.name}
            if prev is not None:
                attrs["dag_deps"] = prev
                attrs["dag_edge"] = f"{prev}->{phase.name}"
                nbytes = self.edge_bytes.get((prev, phase.name))
                if nbytes is not None:
                    attrs["dag_edge_bytes"] = nbytes
            yield from phase.run(ctx, attrs=attrs)
            prev = phase.name
