"""Tests for iteration bookkeeping and convergence helpers."""

import pytest

from repro.runtime.iterative import IterationLog, IterationStats


def make_log(durations):
    log = IterationLog()
    t = 0.0
    for i, d in enumerate(durations):
        log.add(IterationStats(index=i, start=t, end=t + d,
                               network_bytes=100.0, map_pairs=10))
        t += d
    return log


class TestIterationStats:
    def test_duration(self):
        s = IterationStats(0, 1.0, 3.5, 0.0, 0)
        assert s.duration == 2.5


class TestIterationLog:
    def test_total_time(self):
        assert make_log([1.0, 2.0, 3.0]).total_time == pytest.approx(6.0)

    def test_steady_state_excludes_first(self):
        """The paper's convention: one-off staging excluded."""
        log = make_log([10.0, 2.0, 2.0, 2.0])
        assert log.steady_state_time() == pytest.approx(2.0)

    def test_steady_state_single_iteration(self):
        assert make_log([5.0]).steady_state_time() == pytest.approx(5.0)

    def test_first_iteration_overhead(self):
        log = make_log([10.0, 2.0, 2.0])
        assert log.first_iteration_overhead() == pytest.approx(8.0)

    def test_overhead_never_negative(self):
        log = make_log([1.0, 5.0, 5.0])
        assert log.first_iteration_overhead() == 0.0

    def test_len(self):
        assert len(make_log([1.0, 1.0])) == 2
