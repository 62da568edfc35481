"""Tests for the metrics registry: types, bucketing, exposition."""

from __future__ import annotations

import math
import random
import re

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    IntervalUnion,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_value_per_label_set(self):
        c = Counter("x_total")
        c.inc(2.0, device="cpu")
        c.inc(3.0, device="cpu")
        c.inc(5.0, device="gpu")
        assert c.value(device="cpu") == 5.0
        assert c.value(device="gpu") == 5.0
        assert c.value(device="mic") == 0.0
        assert c.total() == 10.0

    def test_label_order_does_not_matter(self):
        c = Counter("x_total")
        c.inc(1.0, a="1", b="2")
        c.inc(1.0, b="2", a="1")
        assert c.value(a="1", b="2") == 2.0
        assert len(c.samples()) == 1

    def test_negative_increment_rejected(self):
        c = Counter("x_total")
        with pytest.raises(ValueError, match="negative"):
            c.inc(-1.0)

    def test_nan_increment_rejected(self):
        # `nan < 0` is False: the check must be `not value >= 0`.
        c = Counter("x_total")
        with pytest.raises(ValueError, match="x_total.*NaN"):
            c.inc(math.nan, device="cpu")
        assert c.samples() == []

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("bad name!")


class TestCounterChild:
    """A bound child is the ``inc(**labels)`` path with the label key
    built once; nothing it writes may differ."""

    def test_unused_child_registers_nothing(self):
        r = MetricsRegistry()
        r.counter_child("x_total", device="cpu")
        assert r.names() == []
        assert r.get("x_total") is None
        assert r.render() == ""

    def test_render_and_dicts_match_the_labels_path(self):
        rng = random.Random(5)
        ops = [
            (rng.choice(["a_total", "b_total"]),
             {"device": rng.choice(["n0.cpu", "n0.gpu", "n1.cpu"]),
              "kind": rng.choice(["compute", "h2d", 3])},
             rng.choice([0, 1, 2.5, 1e-7, 0.1]))
            for _ in range(200)
        ]
        plain, bound = MetricsRegistry(), MetricsRegistry()
        children = {}
        for name, labels, value in ops:
            plain.counter(name).inc(value, **labels)
            key = (name, tuple(labels.items()))
            if key not in children:
                # keyword order must not matter, as for inc(**labels)
                children[key] = bound.counter_child(
                    name, **dict(reversed(list(labels.items())))
                )
            children[key].inc(value)
        assert bound.render() == plain.render()
        assert bound.to_dict() == plain.to_dict()
        assert ([[k for k, _ in m.samples()] for m in bound]
                == [[k for k, _ in m.samples()] for m in plain])

    def test_child_and_labels_path_share_one_series(self):
        r = MetricsRegistry()
        child = r.counter_child("x_total", device="cpu")
        child.inc(2)
        r.counter("x_total").inc(3, device="cpu")
        child.inc()
        assert r.counter("x_total").value(device="cpu") == 6.0
        assert len(r.counter("x_total").samples()) == 1

    @pytest.mark.parametrize("value", [-1.0, -1e-300, math.nan])
    def test_negative_and_nan_increments_raise(self, value):
        r = MetricsRegistry()
        child = r.counter_child("x_total", device="cpu")
        with pytest.raises(ValueError, match="x_total"):
            child.inc(value)
        assert r.names() == []  # a rejected first inc registers nothing

    def test_gauge_name_raises_type_error_on_first_inc(self):
        r = MetricsRegistry()
        r.gauge("depth").set(1.0)
        child = r.counter_child("depth", node="n0")  # binding is lazy
        with pytest.raises(TypeError, match="already registered as gauge"):
            child.inc()


class TestGaugeAndHistogramChildren:
    """Bound gauge and histogram series are the ``set(**labels)`` and
    ``observe(**labels)`` paths with the label key built once."""

    def test_unused_children_register_nothing(self):
        r = MetricsRegistry()
        r.gauge_child("depth", node="n0")
        r.histogram_child("depth_hist", COUNT_BUCKETS, policy="dynamic")
        assert r.names() == []

    def test_render_dicts_and_write_set_match_the_labels_path(self):
        rng = random.Random(7)
        ops = [
            (rng.choice(["g", "h"]),
             {"policy": rng.choice(["dynamic", "locality"]),
              "node": rng.choice(["n0", "n1", 2])},
             rng.choice([0, 1, 3, 17, 0.5, 200]))
            for _ in range(200)
        ]
        plain, bound = MetricsRegistry(), MetricsRegistry()
        dirty_plain, dirty_bound = plain.track_writes(), bound.track_writes()
        children = {}
        for kind, labels, value in ops:
            key = (kind, tuple(labels.items()))
            if kind == "g":
                plain.gauge("depth").set(value, **labels)
                if key not in children:
                    children[key] = bound.gauge_child(
                        "depth", **dict(reversed(list(labels.items())))
                    )
                children[key].set(value)
            else:
                plain.histogram("depth_hist", buckets=COUNT_BUCKETS).observe(
                    value, **labels
                )
                if key not in children:
                    children[key] = bound.histogram_child(
                        "depth_hist", COUNT_BUCKETS,
                        **dict(reversed(list(labels.items()))),
                    )
                children[key].observe(value)
        assert bound.render() == plain.render()
        assert repr(bound.to_dict()) == repr(plain.to_dict())  # float bits too
        assert dirty_bound == dirty_plain  # the gauge writes, as (name, key)

    def test_child_and_labels_path_share_one_series(self):
        r = MetricsRegistry()
        gauge = r.gauge_child("depth", node="n0")
        hist = r.histogram_child("depth_hist", COUNT_BUCKETS, node="n0")
        gauge.set(2)
        hist.observe(2)
        r.gauge("depth").set(5, node="n0")
        r.histogram("depth_hist", buckets=COUNT_BUCKETS).observe(5, node="n0")
        hist.observe(1)
        assert r.gauge("depth").samples() == [({"node": "n0"}, 5.0)]
        (entry,) = r.to_dict()["depth_hist"]
        assert (entry["count"], entry["sum"]) == (3, 8.0)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(4.0, node="n0")
        g.inc(2.0, node="n0")
        g.inc(-5.0, node="n0")  # a gauge goes down by a negative inc
        assert g.samples() == [({"node": "n0"}, 1.0)]
        g.inc()  # unlabeled series is independent
        assert g.samples() == [({"node": "n0"}, 1.0), ({}, 1.0)]


class TestHistogramBucketing:
    def test_boundary_observation_counts_into_that_bucket(self):
        # "le" semantics: an observation equal to an upper bound belongs
        # to that bound's bucket, not the next one.
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0)
        h.observe(2.0)
        h.observe(4.0)
        series = h._samples[()]
        assert series.bucket_counts == [1, 1, 1, 0]

    def test_below_first_and_above_last_bound(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(0.0)      # below every finite bound -> first bucket
        h.observe(-3.0)     # negative still lands in the first bucket
        h.observe(100.0)    # beyond the last finite bound -> +Inf bucket
        series = h._samples[()]
        assert series.bucket_counts == [2, 0, 1]
        assert series.count == 3
        assert series.sum == pytest.approx(97.0)

    def test_bounds_sorted_and_deduplicated_with_inf_appended(self):
        h = Histogram("h", buckets=(4.0, 1.0, 4.0, 2.0))
        assert h.bounds == (1.0, 2.0, 4.0, math.inf)

    def test_needs_a_finite_bound(self):
        with pytest.raises(ValueError, match="finite bucket"):
            Histogram("h", buckets=(math.inf,))

    def test_count_and_total_per_label_set(self):
        h = Histogram("h", buckets=COUNT_BUCKETS)
        for depth in (0, 1, 1, 7):
            h.observe(depth, policy="dynamic")
        series = h._samples[(("policy", "dynamic"),)]
        assert (series.count, series.sum) == (4, 9.0)
        assert list(h._samples) == [(("policy", "dynamic"),)]


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.names() == ["a_total", "g", "h"]

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(TypeError, match="already registered as counter"):
            reg.gauge("a_total")

    def test_iteration_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b_total")
        reg.counter("a_total")
        assert [m.name for m in reg] == ["a_total", "b_total"]


class TestPrometheusExposition:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", help="jobs run").inc(3, node="n0")
        reg.gauge("p").set(0.25)
        text = reg.render()
        assert "# HELP jobs_total jobs run\n" in text
        assert "# TYPE jobs_total counter\n" in text
        assert 'jobs_total{node="n0"} 3\n' in text
        assert "# TYPE p gauge\n" in text
        assert "p 0.25\n" in text
        assert text.endswith("\n")

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc(1, label='a"b\\c\nd')
        line = [l for l in reg.render().splitlines() if l.startswith("x_total")]
        assert line == ['x_total{label="a\\"b\\\\c\\nd"} 1']

    def test_histogram_exposition_is_cumulative_and_complete(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 5.0):
            h.observe(v, op="map")
        lines = reg.render().splitlines()
        assert '# TYPE lat histogram' in lines
        assert 'lat_bucket{op="map",le="1"} 1' in lines
        assert 'lat_bucket{op="map",le="2"} 2' in lines
        assert 'lat_bucket{op="map",le="+Inf"} 3' in lines
        assert 'lat_sum{op="map"} 7' in lines
        assert 'lat_count{op="map"} 3' in lines

    def test_every_sample_line_is_well_formed(self):
        # promtool-style sanity: every non-comment line is
        # name{labels}? value
        reg = MetricsRegistry()
        reg.counter("a_total").inc(1.5, x="1")
        reg.gauge("b").set(-2.0)
        reg.histogram("c", buckets=(0.1,)).observe(0.05)
        pattern = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$'
        )
        for line in reg.render().splitlines():
            if line.startswith("#"):
                continue
            assert pattern.match(line), line

    def test_golden_text_with_sorted_label_sets(self):
        # Byte-for-byte golden: label sets render sorted regardless of
        # the order they were first touched, so the exposition of a
        # deterministic run is stable enough to diff / hash in CI.
        reg = MetricsRegistry()
        jobs = reg.counter("jobs_total", help="jobs run")
        jobs.inc(3, node="n1")  # n1 touched before n0 on purpose
        jobs.inc(1, node="n0")
        reg.gauge("depth", help="queue depth").set(4, policy="dynamic")
        assert reg.render() == (
            "# HELP depth queue depth\n"
            "# TYPE depth gauge\n"
            'depth{policy="dynamic"} 4\n'
            "# HELP jobs_total jobs run\n"
            "# TYPE jobs_total counter\n"
            'jobs_total{node="n0"} 1\n'
            'jobs_total{node="n1"} 3\n'
        )

    def test_exposition_byte_stable_across_touch_order(self):
        def build(order):
            reg = MetricsRegistry()
            counter = reg.counter("a_total")
            gauge = reg.gauge("g")
            hist = reg.histogram("h", buckets=(1.0, 2.0))
            for node in order:
                counter.inc(1, node=node)
                gauge.set(float(len(node)), node=node)
                hist.observe(1.5, node=node)
            return reg.render()

        orders = [["n1", "n0", "n2"], ["n2", "n1", "n0"], ["n0", "n2", "n1"]]
        rendered = {build(order) for order in orders}
        assert len(rendered) == 1

    def test_to_dict_round_trips_through_json(self):
        import json

        reg = MetricsRegistry()
        reg.counter("a_total").inc(2, d="cpu")
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        payload = json.loads(json.dumps(reg.to_dict()))
        assert payload["a_total"] == [{"labels": {"d": "cpu"}, "value": 2.0}]
        assert payload["h"][0]["count"] == 1
        assert payload["h"][0]["buckets"] == {"1": 1, "+Inf": 0}


class TestIntervalUnion:
    def test_disjoint_then_overlapping(self):
        u = IntervalUnion()
        assert u.add(0.0, 1.0) == 1.0
        assert u.add(2.0, 3.0) == 1.0
        # overlaps both: only the gap (1, 2) is newly covered
        assert u.add(0.5, 2.5) == pytest.approx(1.0)
        assert u.total == pytest.approx(3.0)
        assert u.intervals() == [(0.0, 3.0)]

    def test_touching_intervals_merge(self):
        u = IntervalUnion()
        u.add(0.0, 1.0)
        assert u.add(1.0, 2.0) == pytest.approx(1.0)
        assert len(u.intervals()) == 1

    def test_contained_interval_adds_nothing(self):
        u = IntervalUnion()
        u.add(0.0, 10.0)
        assert u.add(2.0, 3.0) == 0.0
        assert u.total == 10.0

    def test_zero_length_is_noop(self):
        u = IntervalUnion()
        assert u.add(5.0, 5.0) == 0.0
        assert len(u.intervals()) == 0

    def test_reversed_interval_rejected(self):
        u = IntervalUnion()
        with pytest.raises(ValueError, match="precedes"):
            u.add(2.0, 1.0)

    def test_zero_length_inside_existing_coverage(self):
        u = IntervalUnion()
        u.add(0.0, 4.0)
        assert u.add(2.0, 2.0) == 0.0
        assert u.add(4.0, 4.0) == 0.0  # exactly at the right edge
        assert u.intervals() == [(0.0, 4.0)]

    def test_abutting_chain_collapses_to_one_interval(self):
        u = IntervalUnion()
        for i in range(10):
            assert u.add(float(i), float(i + 1)) == pytest.approx(1.0)
        assert len(u.intervals()) == 1
        assert u.intervals() == [(0.0, 10.0)]
        assert u.total == pytest.approx(10.0)

    def test_abutting_on_both_sides_bridges_neighbours(self):
        u = IntervalUnion()
        u.add(0.0, 1.0)
        u.add(2.0, 3.0)
        # touches both neighbours exactly: one merged interval, only
        # the gap is newly covered
        assert u.add(1.0, 2.0) == pytest.approx(1.0)
        assert u.intervals() == [(0.0, 3.0)]

    def test_overlapping_merge_reduces_interval_count(self):
        u = IntervalUnion()
        u.add(0.0, 1.0)
        u.add(2.0, 3.0)
        u.add(4.0, 5.0)
        assert len(u.intervals()) == 3
        # spans the interior intervals entirely
        assert u.add(0.5, 4.5) == pytest.approx(2.0)
        assert len(u.intervals()) == 1
        assert u.total == pytest.approx(5.0)

    def test_matches_brute_force_union(self):
        rng = random.Random(42)
        u = IntervalUnion()
        intervals: list[tuple[float, float]] = []
        for _ in range(200):
            start = rng.uniform(0.0, 100.0)
            end = start + rng.uniform(0.0, 10.0)
            u.add(start, end)
            intervals.append((start, end))
        # brute-force merge
        merged_total = 0.0
        cur_s, cur_e = None, 0.0
        for s, e in sorted(intervals):
            if cur_s is None:
                cur_s, cur_e = s, e
            elif s <= cur_e:
                cur_e = max(cur_e, e)
            else:
                merged_total += cur_e - cur_s
                cur_s, cur_e = s, e
        if cur_s is not None:
            merged_total += cur_e - cur_s
        assert u.total == pytest.approx(merged_total)
        # internal invariant: intervals stay sorted and disjoint
        ivs = u.intervals()
        assert all(s < e for s, e in ivs)
        assert all(ivs[i][1] < ivs[i + 1][0] for i in range(len(ivs) - 1))
