"""Tests for the declarative alert-rule engine (repro.obs.rules).

These drive :func:`evaluate_rules` against hand-built
:class:`~repro.obs.timeseries.SeriesBank` contents so every firing /
resolution / for_s edge is pinned without running the simulator.
"""

import json
import math
from bisect import bisect_left, bisect_right
from collections import deque
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import ALERTS_TOTAL, MetricsRegistry
from repro.obs.rules import (
    _evaluate_series,
    _window_aggregate,
    ALERT_CATEGORY,
    ALERTS_TRACK,
    AlertEvent,
    Rule,
    alerts_from_tracer,
    builtin_rules,
    evaluate_rules,
    parse_expr,
    record_alerts,
)
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import Series, SeriesBank
from tests.obs import series_oracle as windowed


def bank_with(name, points, **labels):
    """A one-series bank sampled at the given (t, v) points."""
    bank = SeriesBank()
    series = bank.get_or_create(name, tuple(sorted(labels.items())))
    for t, v in points:
        series.append(t, v)
    return bank


class TestParseExpr:
    def test_bare_metric(self):
        assert parse_expr("mean(prs_x)") == ("mean", "prs_x", {})

    def test_labels_and_whitespace(self):
        func, metric, labels = parse_expr(
            ' p99( prs_q{policy=dynamic, node="n0"} ) '
        )
        assert func == "p99"
        assert metric == "prs_q"
        assert labels == {"policy": "dynamic", "node": "n0"}

    @pytest.mark.parametrize(
        "expr",
        [
            "mean prs_x",  # no parens
            "mean()",  # no metric
            "frobnicate(prs_x)",  # unknown function
            "mean(prs_x{policy})",  # label matcher without '='
            "mean(prs_x",  # unbalanced
        ],
    )
    def test_malformed_rejected(self, expr):
        with pytest.raises(ValueError):
            parse_expr(expr)

    @pytest.mark.parametrize("expr", ["max(m{=x})", "max(m{a=b, =x})"])
    def test_empty_label_name_rejected(self, expr):
        with pytest.raises(ValueError, match="empty label name"):
            parse_expr(expr)


class TestRuleValidation:
    def test_bad_expr_fails_at_construction(self):
        with pytest.raises(ValueError):
            Rule(name="r", expr="nope(", threshold=1.0)

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError, match="unknown comparison"):
            Rule(name="r", expr="mean(prs_x)", threshold=1.0, op="==")

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            Rule(name="r", expr="mean(prs_x)", threshold=1.0, window=-1.0)

    def test_negative_for_s_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            Rule(name="r", expr="mean(prs_x)", threshold=1.0, for_s=-0.1)

    @pytest.mark.parametrize(
        "field, match",
        [
            ("window", "'nan-rule': window must be >= 0, got nan"),
            ("for_s", "'nan-rule': for_s must be >= 0, got nan"),
            ("threshold", "'nan-rule': threshold is NaN"),
        ],
    )
    def test_nan_rejected_naming_the_rule(self, field, match):
        kwargs = {"threshold": 1.0, field: math.nan}
        with pytest.raises(ValueError, match=match):
            Rule(name="nan-rule", expr="mean(prs_x)", **kwargs)


class TestEvaluateRules:
    def test_simple_threshold_fires_and_resolves(self):
        bank = bank_with(
            "prs_x",
            [(0.0, 0.0), (1.0, 5.0), (2.0, 6.0), (3.0, 0.0), (4.0, 0.0)],
        )
        rule = Rule(name="hot", expr="value(prs_x)", threshold=4.0)
        events = evaluate_rules(bank, [rule])
        assert len(events) == 1
        e = events[0]
        assert (e.start, e.end, e.resolved) == (1.0, 3.0, True)
        assert e.peak == 6.0
        assert e.severity == "warning"

    def test_unresolved_run_ends_at_last_true_sample(self):
        bank = bank_with("prs_x", [(0.0, 0.0), (1.0, 5.0), (2.0, 5.0)])
        rule = Rule(name="hot", expr="value(prs_x)", threshold=4.0)
        (e,) = evaluate_rules(bank, [rule])
        assert (e.start, e.end, e.resolved) == (1.0, 2.0, False)

    def test_for_s_suppresses_short_blips(self):
        # Condition holds at exactly one sample: held duration is 0,
        # which is < for_s, so no alert.
        bank = bank_with(
            "prs_x", [(0.0, 0.0), (1.0, 9.0), (2.0, 0.0), (3.0, 0.0)]
        )
        rule = Rule(
            name="hot", expr="value(prs_x)", threshold=4.0, for_s=0.5
        )
        assert evaluate_rules(bank, [rule]) == []

    def test_for_s_met_by_sustained_run(self):
        bank = bank_with(
            "prs_x",
            [(0.0, 0.0), (1.0, 9.0), (2.0, 9.0), (3.0, 9.0), (4.0, 0.0)],
        )
        rule = Rule(
            name="hot", expr="value(prs_x)", threshold=4.0, for_s=2.0
        )
        (e,) = evaluate_rules(bank, [rule])
        assert (e.start, e.end, e.resolved) == (1.0, 4.0, True)

    def test_lower_bound_rule_tracks_minimum_peak(self):
        # With op="<" the "peak" is the most extreme (smallest) value.
        bank = bank_with(
            "prs_x", [(0.0, 10.0), (1.0, 2.0), (2.0, 1.0), (3.0, 10.0)]
        )
        rule = Rule(name="cold", expr="value(prs_x)", threshold=5.0, op="<")
        (e,) = evaluate_rules(bank, [rule])
        assert e.peak == 1.0

    def test_windowed_increase(self):
        # Counter climbs by 6 between t=1 and t=2; window=1 sees it.
        bank = bank_with(
            "prs_total", [(0.0, 0.0), (1.0, 1.0), (2.0, 7.0), (3.0, 7.0)]
        )
        rule = Rule(
            name="storm",
            expr="increase(prs_total)",
            threshold=5.0,
            window=1.0,
            op=">=",
        )
        (e,) = evaluate_rules(bank, [rule])
        assert e.start == 2.0
        assert e.peak == 6.0

    def test_label_subset_matching_fires_per_series(self):
        bank = SeriesBank()
        for dev, vals in (("gpu", 9.0), ("cpu", 9.0)):
            s = bank.get_or_create(
                "prs_x", (("device", dev), ("node", "n0"))
            )
            s.append(0.0, 0.0)
            s.append(1.0, vals)
        rule = Rule(
            name="hot", expr="value(prs_x{node=n0})", threshold=4.0
        )
        events = evaluate_rules(bank, [rule])
        # One event per matching series, deterministically ordered.
        assert [dict(e.labels)["device"] for e in events] == ["cpu", "gpu"]

    def test_label_mismatch_is_silent(self):
        bank = bank_with("prs_x", [(0.0, 9.0), (1.0, 9.0)], device="gpu")
        rule = Rule(
            name="hot", expr="value(prs_x{device=tpu})", threshold=4.0
        )
        assert evaluate_rules(bank, [rule]) == []

    def test_end_truncates_evaluation(self):
        bank = bank_with("prs_x", [(0.0, 0.0), (1.0, 9.0), (5.0, 9.0)])
        rule = Rule(name="hot", expr="value(prs_x)", threshold=4.0)
        (e,) = evaluate_rules(bank, [rule], end=2.0)
        assert e.end <= 2.0

    def test_default_rules_are_builtin(self):
        bank = bank_with("prs_unrelated", [(0.0, 1.0)])
        assert evaluate_rules(bank) == []  # healthy bank, builtin set

    def test_builtin_rules_parse_and_name_unique(self):
        rules = builtin_rules()
        names = [r.name for r in rules]
        assert len(names) == len(set(names))
        for rule in rules:
            parse_expr(rule.expr)  # must not raise


class TestRecordAlerts:
    def _event(self, **overrides):
        base = dict(
            rule="hot",
            severity="critical",
            labels=(("device", "gpu"),),
            start=1.0,
            end=2.0,
            resolved=True,
            peak=9.0,
            threshold=4.0,
            expr="value(prs_x)",
        )
        base.update(overrides)
        return AlertEvent(**base)

    def test_spans_and_counter(self):
        tracer = SpanTracer()
        metrics = MetricsRegistry()
        record_alerts(tracer, metrics, [self._event()])
        (span,) = tracer.find(category=ALERT_CATEGORY)
        assert span.track == ALERTS_TRACK
        assert span.name == "hot"
        assert (span.start, span.end) == (1.0, 2.0)
        assert span.attrs["severity"] == "critical"
        counter = metrics.counter(ALERTS_TOTAL)
        assert counter.value(rule="hot", severity="critical") == 1.0

    def test_alert_spans_are_closed_and_consistent(self):
        tracer = SpanTracer()
        record_alerts(tracer, MetricsRegistry(), [self._event()])
        assert tracer.check_consistency() == []

    def test_round_trip_through_alerts_from_tracer(self):
        tracer = SpanTracer()
        events = [
            self._event(),
            self._event(rule="cold", severity="warning", start=0.5),
        ]
        record_alerts(tracer, MetricsRegistry(), events)
        recovered = alerts_from_tracer(tracer)
        assert [a["rule"] for a in recovered] == ["cold", "hot"]
        hot = recovered[1]
        assert hot["labels"] == {"device": "gpu"}
        assert hot["peak"] == 9.0
        assert hot["resolved"] is True
        assert hot["expr"] == "value(prs_x)"

    def test_event_to_dict_is_json_ready(self):
        d = self._event().to_dict()
        assert d["labels"] == {"device": "gpu"}
        assert d["rule"] == "hot"
        assert set(d) == {
            "rule", "severity", "labels", "start", "end",
            "resolved", "peak", "threshold", "expr",
        }


# ----------------------------------------------------------------------
# The one-pass evaluator against a brute-force oracle
# ----------------------------------------------------------------------
def _oracle_signal(func, series, t, window):
    """The signal at sample instant *t*, read through the windowed
    aggregators (each rescans the whole ring)."""
    t0 = t - window
    if func == "value":
        return windowed.value(series, t)
    if func == "rate":
        return windowed.rate(series, t0, t)
    if func == "increase":
        return windowed.increase(series, t0, t)
    if func == "mean":
        return series.mean(t0, t)
    if func == "max":
        return series.vmax(t0, t)
    if func == "min":
        return windowed.vmin(series, t0, t)
    return windowed.quantile(series, 0.5 if func == "p50" else 0.99, t0, t)


def _oracle_events(rule, func, series, end):
    """Brute-force twin of ``_evaluate_series``: per sample, evaluate
    the signal from scratch and track runs where the condition holds."""
    compare = {">": float.__gt__, ">=": float.__ge__,
               "<": float.__lt__, "<=": float.__le__}[rule.op]
    extreme = max if rule.op in (">", ">=") else min
    labels = tuple(sorted(series.labels.items()))
    events, run = [], None  # run = [start, peak, last_true]

    def close(resolved_at):
        if run is not None and run[2] - run[0] >= rule.for_s:
            events.append(AlertEvent(
                rule=rule.name, severity=rule.severity, labels=labels,
                start=run[0],
                end=resolved_at if resolved_at is not None else min(run[2], end),
                resolved=resolved_at is not None, peak=run[1],
                threshold=rule.threshold, expr=rule.expr,
            ))

    for t, _ in series.points():
        if t > end:
            break
        v = _oracle_signal(func, series, t, rule.window)
        if v is not None and compare(float(v), rule.threshold):
            if run is None:
                run = [t, v, t]
            else:
                run[1] = extreme(run[1], v)
                run[2] = t
        elif run is not None:
            close(t)
            run = None
    close(None)
    return events


_FUNC_NAMES = ("value", "rate", "increase", "mean", "max", "min", "p50", "p99")


class TestOnePassMatchesSeriesAggregators:
    """`_evaluate_series` cuts windows by bisection; it must give the
    exact AlertEvent list a per-point rescan through `Series` gives,
    repeated timestamps and a wrapped ring included."""

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from([0, 0, 1, 2, 3]),  # 0 = repeated timestamp
                st.one_of(
                    st.integers(-3, 6).map(float),
                    st.floats(-5.0, 5.0, allow_nan=False),
                    # inexact decimals: summation order shows in the bits
                    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1 / 3]),
                ),
            ),
            min_size=1, max_size=40,
        ),
        capacity=st.sampled_from([4, 16, 8192]),
        func=st.sampled_from(_FUNC_NAMES),
        op=st.sampled_from([">", ">=", "<", "<="]),
        threshold=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
        window=st.sampled_from([0.0, 1e-3, 2.5e-3, 5e-3]),
        for_s=st.sampled_from([0.0, 1e-3, 3e-3]),
        end_cut=st.sampled_from([None, 0.5]),
    )
    def test_equal_alert_events(self, steps, capacity, func, op, threshold,
                                window, for_s, end_cut):
        series = Series("prs_x", (("device", "gpu"),), capacity=capacity)
        tick = 0
        for gap, value in steps:
            tick += gap
            series.append(tick * 1e-3, value)
        last = series.last_t
        end = last if end_cut is None else last * end_cut
        rule = Rule(name="r", expr=f"{func}(prs_x)", threshold=threshold,
                    window=window, for_s=for_s, op=op)
        assert (_evaluate_series(rule, func, series, end)
                == _oracle_events(rule, func, series, end))
        # The windowed signals themselves, bit for bit, for every
        # aggregator (a last-bit difference rarely moves an alert).
        times = [t for t, _ in series.points()]
        values = [v for _, v in series.points()]
        for agg in _FUNC_NAMES[1:]:
            for t in times:
                got = _window_aggregate(
                    agg, times, values,
                    bisect_left(times, t - window), bisect_right(times, t),
                )
                assert repr(got) == repr(_oracle_signal(agg, series, t, window))

    @pytest.mark.parametrize("func", _FUNC_NAMES)
    def test_every_func_fires_on_a_repeated_timestamp_series(self, func):
        # A fixed case per func that does fire, so the property above
        # is not vacuously comparing empty lists for some func.
        series = Series("prs_x")
        for t, v in [(0.0, 0.0), (1e-3, 1.0), (1e-3, 4.0), (2e-3, 9.0),
                     (2e-3, 9.0), (3e-3, 16.0), (4e-3, 0.0), (4e-3, 1.0)]:
            series.append(t, v)
        rule = Rule(name="r", expr=f"{func}(prs_x)", threshold=0.5,
                    window=2e-3)
        got = _evaluate_series(rule, func, series, 4e-3)
        assert got and got == _oracle_events(rule, func, series, 4e-3)


# ----------------------------------------------------------------------
# Run-length (change-point) series against a per-point store
# ----------------------------------------------------------------------
class PointSeries:
    """Per-point oracle: a ring of every ``(t, v)`` sample, windowed and
    aggregated straight off the stored points."""

    def __init__(self, labels, capacity):
        self.labels = dict(labels)
        self._points = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, t, v):
        if len(self._points) == self._points.maxlen:
            self.dropped += 1
        self._points.append((t, float(v)))

    def __len__(self):
        return len(self._points)

    def points(self):
        return list(self._points)

    def window(self, t0, t1):
        return [(t, v) for t, v in self._points if t0 <= t <= t1]

    def mean(self, t0, t1):
        pts = self.window(t0, t1)
        return reduce(add, [v for _, v in pts], 0) / len(pts) if pts else None

    def vmax(self, t0, t1):
        return max((v for _, v in self.window(t0, t1)), default=None)


_RUN_VALUES = st.one_of(
    # 0.0 and -0.0 compare equal but print differently: a distinct run
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.7, 1 / 3]),
    st.integers(-3, 6).map(float),
    st.floats(-5.0, 5.0, allow_nan=False),
)


class TestRunLengthSeriesMatchPerPointOracle:
    """A series sampled on a grid stores change points; read back it
    must equal, bit for bit, a store of every sample: points, ring
    accounting, every aggregator, the one-pass alert evaluator and the
    profile line round trip."""

    @settings(max_examples=300, deadline=None)
    @given(
        runs=st.lists(st.tuples(st.integers(1, 7), _RUN_VALUES),
                      min_size=1, max_size=12),
        first=st.integers(0, 5),
        interval=st.sampled_from([1e-3, 1e-4, 0.3]),
        tail=st.one_of(st.none(), st.tuples(st.sampled_from([0.0, 0.4, 1.7]),
                                            _RUN_VALUES)),
        capacity=st.sampled_from([2, 5, 16, 8192]),
        func=st.sampled_from(_FUNC_NAMES),
        op=st.sampled_from([">", ">=", "<", "<="]),
        threshold=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
        span=st.sampled_from([0.0, 1.0, 2.5, 5.0]),
        end_cut=st.sampled_from([None, 0.5]),
    )
    def test_equal_points_aggregators_and_alerts(
        self, runs, first, interval, tail, capacity, func, op, threshold,
        span, end_cut,
    ):
        series = Series("prs_x", (("device", "gpu"),), capacity=capacity,
                        interval=interval)
        oracle = PointSeries({"device": "gpu"}, capacity)
        k = first
        for count, value in runs:
            for _ in range(count):
                series.sample(k, value)
                oracle.append(k * interval, value)
                k += 1
        if tail is not None:
            # the off-grid end anchor, past the last grid instant
            offset, value = tail
            t_end = (k - 1 + offset) * interval
            series.append(t_end, value)
            oracle.append(t_end, value)

        assert repr(series.points()) == repr(oracle.points())
        assert (len(series), series.dropped) == (len(oracle), oracle.dropped)
        times = [t for t, _ in oracle.points()]
        assert (series.first_t, series.last_t) == (times[0], times[-1])

        window = span * interval
        for t in times + [times[0] - interval, times[-1] + interval]:
            assert repr(windowed.value(series, t)) == repr(windowed.value(oracle, t))
            for agg in _FUNC_NAMES[1:]:
                assert (repr(_oracle_signal(agg, series, t, window))
                        == repr(_oracle_signal(agg, oracle, t, window)))

        end = times[-1] if end_cut is None else times[-1] * end_cut
        rule = Rule(name="r", expr=f"{func}(prs_x)", threshold=threshold,
                    window=window, for_s=interval, op=op)
        assert (repr(_evaluate_series(rule, func, series, end))
                == repr(_oracle_events(rule, func, oracle, end)))

        line = json.dumps(series.to_dict(), sort_keys=True)
        (loaded,) = SeriesBank.from_dicts([json.loads(line)])
        assert repr(loaded.points()) == repr(oracle.points())
        assert loaded.dropped == oracle.dropped
        assert json.dumps(loaded.to_dict(), sort_keys=True) == line


class TestStretchesMatchPerPointOracle:
    """Long runs under wide and infinite windows: `_evaluate_series`
    reads a series stored as runs of equal values, cuts each point's
    window by bisection, and must give the alert events of a per-point
    rescan of the expanded samples, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        runs=st.lists(st.tuples(st.integers(1, 50), _RUN_VALUES),
                      min_size=1, max_size=6),
        first=st.integers(0, 5),
        interval=st.sampled_from([1e-3, 1e-4, 0.3]),
        tail=st.one_of(st.none(), st.tuples(st.sampled_from([0.0, 0.4]),
                                            _RUN_VALUES)),
        func=st.sampled_from(_FUNC_NAMES),
        op=st.sampled_from([">", ">=", "<", "<="]),
        threshold=st.sampled_from([-1.0, 0.0, 0.1, 1 / 3, 0.7, 1.0]),
        span=st.sampled_from(
            [0.0, 0.5, 1.0, 2.0, 3.0, 10.0, 25.5, 50.0, 200.0, math.inf]
        ),
        end_cut=st.sampled_from([None, 0.5, 0.9]),
    )
    def test_equal_alert_events(self, runs, first, interval, tail, func, op,
                                threshold, span, end_cut):
        series = Series("prs_x", (("device", "gpu"),), interval=interval)
        oracle = PointSeries({"device": "gpu"}, 8192)
        k = first
        for count, value in runs:
            for _ in range(count):
                series.sample(k, value)
                oracle.append(k * interval, value)
                k += 1
        if tail is not None:
            offset, value = tail
            series.append((k - 1 + offset) * interval, value)
            oracle.append((k - 1 + offset) * interval, value)
        times = [t for t, _ in oracle.points()]
        end = times[-1] if end_cut is None else times[-1] * end_cut
        rule = Rule(name="r", expr=f"{func}(prs_x)", threshold=threshold,
                    window=span * interval, for_s=0.0, op=op)
        assert (repr(_evaluate_series(rule, func, series, end))
                == repr(_oracle_events(rule, func, oracle, end)))

    def test_mean_whose_last_bit_follows_the_window_count(self):
        # A 5 ms window on a 0.1 ms grid holds 50 or 51 points.  For a
        # value whose mean over 50 copies and over 51 copies differ in
        # the last bit (0.7: the means fold in order), `mean >= the
        # larger` flips inside one run.
        def mean(v, c):
            return reduce(add, [v] * c, 0) / c

        value = next(v for v in (0.7, 1 / 3, 2 / 3)
                     if mean(v, 50) != mean(v, 51))
        interval = 1e-4
        series = Series("prs_x", interval=interval)
        oracle = PointSeries({}, 8192)
        for k in range(300):
            series.sample(k, value)
            oracle.append(k * interval, value)
        rule = Rule(name="r", expr="mean(prs_x)",
                    threshold=max(mean(value, 50), mean(value, 51)),
                    window=5e-3, op=">=")
        end = 299 * interval
        got = _evaluate_series(rule, "mean", series, end)
        assert repr(got) == repr(_oracle_events(rule, "mean", oracle, end))
        assert len(got) > 1

    @pytest.mark.parametrize("func", _FUNC_NAMES)
    def test_end_anchor_at_the_last_grid_instant(self, func):
        # The off-grid anchor shares the last grid point's time, so that
        # point's window reaches the anchor's value (which cuts the run
        # short of for_s).
        series = Series("prs_x", interval=1e-3)
        oracle = PointSeries({}, 8192)
        for k in range(3):
            series.sample(k, 1.0)
            oracle.append(k * 1e-3, 1.0)
        series.append(2e-3, -1.0)
        oracle.append(2e-3, -1.0)
        rule = Rule(name="r", expr=f"{func}(prs_x)", threshold=0.5,
                    window=0.0, for_s=1.5e-3, op=">")
        got = _evaluate_series(rule, func, series, 2e-3)
        assert repr(got) == repr(_oracle_events(rule, func, oracle, 2e-3))
