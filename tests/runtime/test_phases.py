"""Tests for the phase pipeline and per-phase time breakdowns."""

from __future__ import annotations

import pytest

from repro.runtime.job import JobConfig
from repro.runtime.phases import ITERATION_PHASES
from repro.runtime.prs import PRSRuntime

from tests.helpers import (
    CombinerModSumApp,
    CountdownApp,
    ModSumApp,
    phase_spans,
)

PHASE_ORDER = [
    "broadcast",
    "map",
    "combine",
    "shuffle",
    "reduce",
    "gather",
    "convergence",
]


def phase_sum(result, rank: int = 0) -> float:
    return sum(
        seconds
        for per_iter in result.phase_breakdown(rank=rank).values()
        for seconds in per_iter.values()
    )


class TestBreakdownTotals:
    def test_iterative_sums_match_makespan(self, delta4):
        result = PRSRuntime(delta4, JobConfig()).run(CountdownApp(n=2000))
        assert phase_sum(result) == pytest.approx(result.makespan, rel=0.01)

    def test_non_iterative_sums_match_makespan(self, delta4):
        result = PRSRuntime(delta4, JobConfig()).run(ModSumApp(n=1000))
        assert phase_sum(result) == pytest.approx(result.makespan, rel=0.01)

    def test_every_rank_sums_to_its_finish_time(self, delta4):
        result = PRSRuntime(delta4, JobConfig()).run(CountdownApp(n=2000))
        for rank in range(delta4.n_nodes):
            spans = phase_spans(result.trace, rank=rank)
            assert spans, f"rank {rank} recorded no phases"
            finish = max(s.end for s in spans)
            assert phase_sum(result, rank=rank) == pytest.approx(finish)

    def test_phase_totals_match_breakdown(self, delta4):
        result = PRSRuntime(delta4, JobConfig()).run(CountdownApp(n=2000))
        totals = result.phase_totals()
        assert sum(totals.values()) == pytest.approx(phase_sum(result))


class TestSpanStructure:
    def test_setup_recorded_as_iteration_minus_one(self, delta4):
        result = PRSRuntime(delta4, JobConfig()).run(ModSumApp(n=500))
        setup = phase_spans(result.trace, rank=0, iteration=-1)
        assert [s.name for s in setup] == ["setup"]
        assert setup[0].start == 0.0

    def test_iteration_phases_in_execution_order(self, delta4):
        result = PRSRuntime(delta4, JobConfig()).run(CountdownApp(n=2000))
        for iteration in range(result.iterations):
            names = [
                s.name for s in phase_spans(result.trace, rank=0, iteration=iteration)
            ]
            assert names == PHASE_ORDER

    def test_spans_are_contiguous_per_rank(self, delta4):
        result = PRSRuntime(delta4, JobConfig()).run(CountdownApp(n=2000))
        spans = sorted(phase_spans(result.trace, rank=0), key=lambda s: s.start)
        for prev, nxt in zip(spans, spans[1:]):
            assert nxt.start == pytest.approx(prev.end)

    def test_pipeline_constant_matches_phase_names(self):
        assert [cls.name for cls in ITERATION_PHASES] == PHASE_ORDER

    def test_map_phase_dominates_compute_heavy_job(self, delta4):
        result = PRSRuntime(delta4, JobConfig()).run(CountdownApp(n=50_000))
        totals = result.phase_totals()
        assert totals["map"] == max(totals.values())

    def test_broadcast_zero_for_non_iterative(self, delta4):
        result = PRSRuntime(delta4, JobConfig()).run(ModSumApp(n=500))
        totals = result.phase_totals()
        assert totals["broadcast"] == 0.0
        assert totals["convergence"] == 0.0


class TestCombinerVisibility:
    def test_combiner_app_still_correct_under_phases(self, delta4):
        app = CombinerModSumApp(n=500, n_keys=3)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        assert result.output == app.expected_output()
        assert "combine" in result.phase_totals()
