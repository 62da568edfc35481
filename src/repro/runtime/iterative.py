"""Iterative-application support (paper §III.C.3).

The structural support — a single GPU-context-owning daemon per card and
loop-invariant input caching — lives in
:class:`~repro.runtime.daemons.GpuDaemon` (``input_cached``).  This module
provides the per-iteration bookkeeping the :class:`ConvergencePhase` of
:mod:`repro.runtime.phases` records on the master.  Each driver
iteration is one run of the phase chain built by
:func:`repro.runtime.phases.iteration_graph` (see ``docs/DAG.md``); for
the *intra*-iteration time breakdown (map vs shuffle vs reduce ...) see
the phase spans on :class:`~repro.simulate.trace.Trace` — an
:class:`IterationStats` covers one whole driver iteration, a phase span
one link of the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class IterationStats:
    """Timing/communication record of one driver iteration."""

    index: int
    start: float
    end: float
    network_bytes: float
    map_pairs: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class IterationLog:
    """Accumulates :class:`IterationStats` across a job."""

    stats: list[IterationStats] = field(default_factory=list)

    def add(self, item: IterationStats) -> None:
        self.stats.append(item)

    def __len__(self) -> int:
        return len(self.stats)

    @property
    def total_time(self) -> float:
        return sum(s.duration for s in self.stats)

    def steady_state_time(self) -> float:
        """Mean iteration time excluding the first (staging) iteration.

        The paper excludes one-off staging overhead from iterative-app
        timings because it "will be amortized when number of iterations is
        large"; this helper implements that convention.
        """
        if len(self.stats) <= 1:
            return self.total_time
        rest = self.stats[1:]
        return sum(s.duration for s in rest) / len(rest)

    def first_iteration_overhead(self) -> float:
        """Extra time iteration 0 spent versus the steady state."""
        if len(self.stats) <= 1:
            return 0.0
        return max(0.0, self.stats[0].duration - self.steady_state_time())
