"""Unit + integration tests for the time-series sampler.

Three layers:

* :class:`Series` / :class:`SeriesBank` ring-buffer and aggregator
  semantics on hand-built data (the windowed aggregators the alert
  rules are checked against live in ``tests/obs/series_oracle.py``);
* :class:`MetricSampler` grid mechanics driven through a bare
  :class:`Trace` (no simulation) — back-fill, pre-mutation snapshots,
  the end anchor, derived probes;
* whole-runtime invariants: sampling must not perturb the schedule
  (bitwise-identical makespans/spans/outputs), sample times must stay
  monotone across rank-restart incarnations, and a fixed fault seed
  must reproduce the exact series and alerts;
* the sampler against ``ResortingSampler``, a reference that snapshots
  every series at every grid instant, and a bound on the series writes
  it makes.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import pytest

from repro.data.synth import gaussian_mixture
from repro.hardware import delta_cluster
from repro.obs.metrics import (
    COMM_BYTES,
    COMM_MESSAGES,
    DEVICE_BUSY_SECONDS,
    DEVICE_BUSY_UNION_SECONDS,
    Counter,
    Gauge,
    _label_key,
)
from repro.obs.timeseries import (
    DEVICE_BUSY_FRACTION,
    DEVICE_IMBALANCE,
    LINK_MODEL_RATIO,
    LINK_UTILIZATION,
    MetricSampler,
    Series,
    SeriesBank,
)
from repro.simulate.trace import Trace
from tests.obs import series_oracle as oracle
from tests.obs.series_oracle import series_of


def run_cmeans(n_nodes=2, sample_interval=1e-3, faults=None, fault_seed=0,
               **config_kwargs):
    from repro.apps.cmeans import CMeansApp
    from repro.runtime.job import JobConfig
    from repro.runtime.prs import PRSRuntime

    pts, _, _ = gaussian_mixture(600, 8, 4, seed=3)
    app = CMeansApp(pts, 4, seed=3, max_iterations=3, epsilon=1e-12)
    config = JobConfig(sample_interval=sample_interval, faults=faults,
                       fault_seed=fault_seed, **config_kwargs)
    return PRSRuntime(delta_cluster(n_nodes), config).run(app)


class TestSeries:
    def test_append_rejects_time_regression(self):
        s = Series("s")
        s.append(1.0, 10.0)
        with pytest.raises(ValueError, match="precedes"):
            s.append(0.5, 11.0)

    def test_equal_timestamps_allowed(self):
        s = Series("s")
        s.append(1.0, 10.0)
        s.append(1.0, 11.0)  # the off-grid end anchor can coincide
        assert len(s) == 2

    def test_ring_drops_oldest(self):
        s = Series("s", capacity=3)
        for i in range(5):
            s.append(float(i), float(i) * 10)
        assert s.dropped == 2
        assert s.points() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]

    def test_capacity_floor(self):
        with pytest.raises(ValueError, match="capacity"):
            Series("s", capacity=1)

    def test_window_is_inclusive_both_ends(self):
        s = Series("s")
        for t in (0.0, 1.0, 2.0, 3.0):
            s.append(t, t)
        assert [t for t, _ in s.window(1.0, 2.0)] == [1.0, 2.0]

    def test_value_is_latest_at_or_before(self):
        s = Series("s")
        s.append(1.0, 10.0)
        s.append(2.0, 20.0)
        assert oracle.value(s, 0.5) is None
        assert oracle.value(s, 1.5) == 10.0
        assert oracle.value(s, 2.0) == 20.0

    def test_increase_and_rate(self):
        s = Series("s")
        s.append(0.0, 100.0)
        s.append(2.0, 106.0)
        assert oracle.increase(s, 0.0, 2.0) == pytest.approx(6.0)
        assert oracle.rate(s, 0.0, 2.0) == pytest.approx(3.0)
        assert oracle.rate(s, 0.0, 0.5) is None  # single sample in window

    def test_mean_max_min(self):
        s = Series("s")
        for t, v in ((0.0, 1.0), (1.0, 3.0), (2.0, 2.0)):
            s.append(t, v)
        assert s.mean(0.0, 2.0) == pytest.approx(2.0)
        assert s.vmax(0.0, 2.0) == 3.0
        assert oracle.vmin(s, 0.0, 2.0) == 1.0
        assert s.mean(5.0, 6.0) is None

    def test_quantile_interpolates(self):
        s = Series("s")
        for t, v in enumerate((10.0, 20.0, 30.0, 40.0)):
            s.append(float(t), v)
        assert oracle.quantile(s, 0.5, 0.0, 3.0) == pytest.approx(25.0)
        assert oracle.quantile(s, 0.0, 0.0, 3.0) == 10.0
        assert oracle.quantile(s, 1.0, 0.0, 3.0) == 40.0

    def test_quantile_single_sample_and_empty(self):
        s = Series("s")
        assert oracle.quantile(s, 0.9, 0.0, 1.0) is None
        s.append(0.5, 7.0)
        assert oracle.quantile(s, 0.99, 0.0, 1.0) == 7.0

    def test_quantile_range_checked(self):
        s = Series("s")
        with pytest.raises(ValueError, match="quantile"):
            oracle.quantile(s, 1.5, 0.0, 1.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_append_rejects_non_finite_time(self, t):
        # a NaN time would make every later ordering check pass vacuously
        s = Series("s_total")
        s.append(0.0, 1.0)
        with pytest.raises(ValueError, match="'s_total'.*non-finite"):
            s.append(t, 2.0)
        assert s.points() == [(0.0, 1.0)]

    def test_append_rejects_nan_value(self):
        s = Series("s_total")
        with pytest.raises(ValueError, match="'s_total'.*NaN"):
            s.append(0.0, float("nan"))
        assert len(s) == 0


class TestGridSamples:
    def test_repeats_extend_a_run_and_count_as_samples(self):
        s = Series("s", interval=1e-3)
        for k, v in enumerate([1.0, 1.0, 1.0, 2.0, 2.0, 1.0]):
            s.sample(k, v)
        assert s.runs() == [(0, 3, 1.0), (3, 5, 2.0), (5, 6, 1.0)]
        assert len(s) == 6
        assert s.points() == [(k * 1e-3, v) for k, v in
                              enumerate([1.0, 1.0, 1.0, 2.0, 2.0, 1.0])]

    def test_zero_signs_are_distinct_runs(self):
        s = Series("s", interval=1e-3)
        for k, v in enumerate([0.0, -0.0, -0.0, 0.0]):
            s.sample(k, v)
        assert [repr(v) for _, _, v in s.runs()] == ["0.0", "-0.0", "0.0"]

    def test_full_ring_trims_the_oldest_run_head(self):
        s = Series("s", capacity=3, interval=1e-3)
        for k, v in enumerate([1.0, 1.0, 2.0, 3.0, 3.0]):
            s.sample(k, v)
        assert s.dropped == 2 and len(s) == 3
        assert s.runs() == [(2, 3, 2.0), (3, 5, 3.0)]
        s.append(6e-3, 4.0)  # the off-grid anchor pushes one more out
        assert s.points() == [(3e-3, 3.0), (4e-3, 3.0), (6e-3, 4.0)]
        assert s.dropped == 3

    def test_grid_must_be_contiguous_and_precede_off_grid_points(self):
        s = Series("s_total", interval=1e-3)
        s.sample(4, 1.0)
        for k in (6, 3):  # a skipped or repeated index, new value or not
            for value in (1.0, 2.0):
                with pytest.raises(ValueError, match="'s_total'.*does not follow"):
                    s.sample(k, value)
        assert s.runs() == [(4, 5, 1.0)]
        s.append(5e-3, 1.0)
        with pytest.raises(ValueError, match="after an off-grid point"):
            s.sample(5, 1.0)

    def test_nan_sample_rejected(self):
        s = Series("s_total", interval=1e-3)
        s.sample(0, 1.0)
        with pytest.raises(ValueError, match="'s_total'.*NaN"):
            s.sample(1, float("nan"))
        assert len(s) == 1

    def test_sampling_needs_a_grid(self):
        with pytest.raises(ValueError, match="no sampling grid"):
            Series("s").sample(0, 1.0)


class TestSeriesBank:
    def test_matching_selects_label_subsets_sorted(self):
        bank = SeriesBank()
        bank.get_or_create("m", _label_key({"link": "remote", "x": "1"}))
        bank.get_or_create("m", _label_key({"link": "local"}))
        bank.get_or_create("other", _label_key({"link": "remote"}))
        got = bank.matching("m", {"link": "remote"})
        assert [s.labels for s in got] == [{"link": "remote", "x": "1"}]
        assert len(bank.matching("m")) == 2

    def test_jsonl_round_trip(self):
        import json

        bank = SeriesBank()
        s = bank.get_or_create("m", _label_key({"a": "b"}))
        s.append(0.0, 1.0)
        s.append(1.0, 2.5)
        lines = bank.to_jsonl_lines()
        rebuilt = SeriesBank.from_dicts([json.loads(x) for x in lines])
        assert rebuilt.to_jsonl_lines() == lines
        assert series_of(rebuilt, "m", a="b").points() == [(0.0, 1.0), (1.0, 2.5)]

    def test_v4_line_round_trip(self):
        import json

        bank = SeriesBank(interval=1e-4)
        s = bank.get_or_create("m", ())
        for k, v in zip(range(3, 9), [0.0, 0.0, 5.0, 5.0, 5.0, -0.0]):
            s.sample(k, v)
        s.append(9.5e-4, 7.0)
        (line,) = bank.to_jsonl_lines()
        payload = json.loads(line)
        assert payload["grid"] == {"interval": 1e-4, "end": 9}
        assert (payload["k"], payload["v"]) == ([3, 5, 8], [0.0, 5.0, -0.0])
        assert payload["tail"] == [[9.5e-4, 7.0]]
        rebuilt = SeriesBank.from_dicts([payload])
        assert rebuilt.to_jsonl_lines() == [line]
        assert repr(series_of(rebuilt, "m").points()) == repr(s.points())

    @pytest.mark.parametrize("payload, counts", [
        ({"t": [0, 1, 2], "v": [5, 6]}, "3 times but 2 values"),
        ({"t": [0], "v": [5, 6]}, "1 times but 2 values"),
        ({"grid": {"interval": 1e-3, "end": 4}, "k": [0, 2], "v": [1.0],
          "tail": []}, "2 change indices but 1 values"),
    ])
    def test_mismatched_lengths_rejected(self, payload, counts):
        # zip() used to drop the tail of the longer list silently
        with pytest.raises(ValueError, match=f"'x': {counts}"):
            SeriesBank.from_dicts([{"series": "x", "labels": {}, **payload}])

    @pytest.mark.parametrize("line", [
        '{"series": "x", "t": [0.0, NaN], "v": [1.0, 2.0]}',
        '{"series": "x", "t": [0.0, 1.0], "v": [1.0, NaN]}',
        '{"series": "x", "grid": {"interval": 0.001, "end": 2}, '
        '"k": [0], "v": [NaN], "tail": []}',
        '{"series": "x", "grid": {"interval": 0.001, "end": 2}, '
        '"k": [0], "v": [1.0], "tail": [[Infinity, 1.0]]}',
    ])
    def test_non_finite_loads_rejected(self, line):
        import json

        with pytest.raises(ValueError, match="'x'"):
            SeriesBank.from_dicts([json.loads(line)])

    def test_names_and_total_points(self):
        bank = SeriesBank()
        bank.get_or_create("b", ()).append(0.0, 1.0)
        bank.get_or_create("a", ()).append(0.0, 1.0)
        assert [series.name for series in bank] == ["a", "b"]
        assert bank.total_points == 2


class TestSamplerGrid:
    def make(self, interval=1e-3):
        trace = Trace()
        sampler = trace.attach_sampler(MetricSampler(interval=interval))
        return trace, sampler

    def test_interval_validated(self):
        with pytest.raises(ValueError, match="interval"):
            MetricSampler(interval=0.0)

    @pytest.mark.parametrize(
        "interval", [float("inf"), float("nan"), 0, -1e-3]
    )
    def test_interval_must_be_finite_and_positive(self, interval):
        # inf used to pass and then never sample (0 * inf is NaN)
        with pytest.raises(ValueError, match="sample interval"):
            MetricSampler(interval=interval)

    def test_backfills_every_grid_instant(self):
        trace, sampler = self.make(interval=1e-3)
        trace.metrics.counter("c_total").inc(1)
        trace.tick(0.0)  # grid 0
        trace.tick(5.5e-3)  # grids 1..5 back-filled in one tick
        series = series_of(sampler.bank, "c_total")
        assert [t for t, _ in series.points()] == pytest.approx(
            [0.0, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3]
        )

    def test_snapshot_reflects_pre_mutation_state(self):
        # The tick happens *before* the mutation, so the sample at a
        # grid instant must not see updates applied at or after it.
        trace, sampler = self.make(interval=1e-3)
        counter = trace.metrics.counter("c_total")
        counter.inc(1)
        trace.tick(0.0)
        trace.tick(1e-3)  # grid instant 1e-3 sampled pre-mutation
        counter.inc(100)  # the mutation dated 1e-3
        trace.tick(2e-3)
        series = series_of(sampler.bank, "c_total")
        assert series.points() == [(0.0, 1.0), (1e-3, 1.0), (2e-3, 101.0)]

    def test_finalize_adds_end_anchor_and_freezes(self):
        trace, sampler = self.make(interval=1e-3)
        trace.metrics.counter("c_total").inc(1)
        trace.tick(0.0)
        sampler.finalize(2.5e-3)
        series = series_of(sampler.bank, "c_total")
        assert [t for t, _ in series.points()] == pytest.approx(
            [0.0, 1e-3, 2e-3, 2.5e-3]
        )
        assert sampler.finalized
        before = sampler.total_samples
        trace.tick(5e-3)  # ignored after finalize
        assert sampler.total_samples == before

    def test_busy_fraction_and_imbalance_derived(self):
        trace, sampler = self.make(interval=1e-3)
        busy = trace.metrics.counter(DEVICE_BUSY_UNION_SECONDS)
        trace.tick(0.0)
        # device cpu busy the whole 1 ms, gpu idle
        busy.inc(1e-3, device="n0.cpu")
        busy.inc(0.0, device="n0.gpu")
        trace.tick(1e-3 + 1e-9)
        frac = series_of(sampler.bank, DEVICE_BUSY_FRACTION, device="n0.cpu")
        assert frac.points()[-1][1] == pytest.approx(1.0, rel=1e-3)
        imb = series_of(sampler.bank, DEVICE_IMBALANCE)
        # one busy + one idle device: max/mean = 1.0/0.5 = 2.0
        assert imb.points()[-1][1] == pytest.approx(2.0, rel=1e-3)

    def test_link_model_ratio_tracks_observed_over_modelled(self):
        trace, sampler = self.make(interval=1e-3)
        sampler.register_link_model("remote", latency_s=1e-5,
                                    bytes_per_s=1e9)
        msgs = trace.metrics.counter(COMM_MESSAGES)
        nbytes = trace.metrics.counter(COMM_BYTES)
        busy = trace.metrics.counter("prs_device_busy_seconds_total")
        trace.tick(0.0)
        # 10 messages of 1e5 B: modelled = 10*1e-5 + 1e6/1e9 = 1.1e-3 s;
        # the NIC reports 3x that -> ratio 3.
        msgs.inc(10, src="r0", dst="r1", tag="data", link="remote")
        nbytes.inc(1e6, src="r0", dst="r1", tag="data", link="remote")
        busy.inc(3.3e-3, device="net.r1", kind="net")
        trace.tick(1e-3 + 1e-9)
        util = series_of(sampler.bank, LINK_UTILIZATION, link="remote")
        assert util.points()[-1][1] == pytest.approx(1.1, rel=1e-3)
        ratio = series_of(sampler.bank, LINK_MODEL_RATIO, link="remote")
        assert ratio.points()[-1][1] == pytest.approx(3.0, rel=1e-6)

    def test_link_model_validation(self):
        sampler = MetricSampler()
        with pytest.raises(ValueError, match="bandwidth"):
            sampler.register_link_model("x", latency_s=1e-6, bytes_per_s=0.0)

    @pytest.mark.parametrize("alpha", [-1e-6, float("nan"), float("inf")])
    def test_link_model_rejects_non_finite_or_negative_latency(self, alpha):
        sampler = MetricSampler()
        with pytest.raises(ValueError, match="latency"):
            sampler.register_link_model("x", latency_s=alpha, bytes_per_s=1e9)


class TestZeroPerturbation:
    def test_sampled_run_is_bitwise_identical(self):
        sampled = run_cmeans(sample_interval=1e-3)
        bare = run_cmeans(sample_interval=None)
        assert sampled.makespan == bare.makespan
        assert sampled.engine_events == bare.engine_events
        assert sampled.sampler_samples > 0 and bare.sampler_samples == 0
        spans_a = [(s.name, s.attrs["rank"], s.start, s.end)
                   for s in sampled.trace.phase_spans]
        spans_b = [(s.name, s.attrs["rank"], s.start, s.end)
                   for s in bare.trace.phase_spans]
        assert spans_a == spans_b
        assert sorted(map(str, sampled.output.items())) == sorted(
            map(str, bare.output.items()))

    def test_profile_checks_pass_with_alert_spans(self):
        from repro import obs

        result = run_cmeans()
        assert obs.check_profile(result.trace, result.makespan) == []
        assert result.analyze().check() == []


class TestSamplingUnderFaults:
    def test_sample_times_monotone_across_rank_restart(self):
        result = run_cmeans(n_nodes=2, faults="rank_kill@1:t=5e-3",
                            fault_seed=7)
        assert result.recovery is not None
        assert result.recovery.rank_restarts >= 1
        bank = result.trace.sampler.bank
        assert bank.total_points > 0
        for series in bank:
            times = [t for t, _ in series.points()]
            assert times == sorted(times), series.name

    def test_retry_counter_sampled_under_gpu_kill(self):
        result = run_cmeans(faults="gpu_kill@0:t=5e-3", fault_seed=7)
        assert result.recovery.blocks_retried > 0
        series = result.trace.sampler.bank.matching(
            "prs_recovery_blocks_retried_total")
        assert series and series[0].points()[-1][1] > 0

    def test_fault_seed_determinism_of_series_and_alerts(self):
        a = run_cmeans(faults="gpu_kill@0:t=1e-3~9e-3", fault_seed=11)
        b = run_cmeans(faults="gpu_kill@0:t=1e-3~9e-3", fault_seed=11)
        assert (a.trace.sampler.bank.to_jsonl_lines()
                == b.trace.sampler.bank.to_jsonl_lines())
        assert ([al.to_dict() for al in a.alerts]
                == [al.to_dict() for al in b.alerts])

    def test_different_fault_seed_moves_the_series(self):
        # A ranged net_slow factor scales simulated wire time directly,
        # so different seeds must yield visibly different sampled
        # histories (a kill-time range can quantize to the same block
        # boundary; a bandwidth factor cannot hide).
        spec = "net_slow@*:factor=2~5,t0=0,t1=1"
        a = run_cmeans(faults=spec, fault_seed=11)
        c = run_cmeans(faults=spec, fault_seed=12)
        assert (a.trace.sampler.bank.to_jsonl_lines()
                != c.trace.sampler.bank.to_jsonl_lines())


# ----------------------------------------------------------------------
# The write-set sampler against a full sorted snapshot per grid instant
# ----------------------------------------------------------------------
class ResortingSampler(MetricSampler):
    """Reference sampler: every grid instant is a full snapshot that
    re-sorts every registry series and re-derives every probe from
    scratch (no plan, no write set, no skipped instants)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._prev = {}  # raw values behind the derived probes

    def _anchor(self, t):
        self._snapshot(t, None)

    def _backfill(self, now):
        while self._k * self.interval <= now:
            self._snapshot(self._k * self.interval, self._k)
            self._k += 1

    def _snapshot(self, t, k):
        # grid instant k, or the off-grid end anchor at t when k is None
        put, at = (Series.append, t) if k is None else (Series.sample, k)
        bank = self.bank
        busy_union, net_busy, link_msgs, link_bytes = {}, 0.0, {}, {}
        for metric in self._trace.metrics:  # name-sorted
            if not isinstance(metric, (Counter, Gauge)):
                continue
            for key, value in sorted(metric._samples.items()):
                put(bank.get_or_create(metric.name, key), at, value)
                labels = dict(key)
                if metric.name == DEVICE_BUSY_UNION_SECONDS:
                    busy_union[key] = value
                elif metric.name == DEVICE_BUSY_SECONDS:
                    if labels.get("kind") == "net":
                        net_busy += value
                elif metric.name == COMM_MESSAGES:
                    link = labels.get("link", "")
                    link_msgs[link] = link_msgs.get(link, 0.0) + value
                elif metric.name == COMM_BYTES:
                    link = labels.get("link", "")
                    link_bytes[link] = link_bytes.get(link, 0.0) + value
        prev, raw = self._prev, {}
        dt = (t - self._last_t) if self._last_t is not None else 0.0
        fractions = []
        for key, value in sorted(busy_union.items()):
            device = dict(key).get("device", "")
            raw[f"busy::{device}"] = value
            delta = value - prev.get(f"busy::{device}", 0.0)
            fraction = (delta / dt) if dt > 0.0 else 0.0
            put(bank.get_or_create(DEVICE_BUSY_FRACTION, key), at, fraction)
            if not device.startswith("net."):
                fractions.append(fraction)
        if fractions:
            mean = reduce(add, fractions, 0) / len(fractions)
            put(bank.get_or_create(DEVICE_IMBALANCE, ()), at,
                (max(fractions) / mean) if mean > 0.0 else 0.0)
        raw["net_busy"] = net_busy
        net_delta = net_busy - prev.get("net_busy", 0.0)
        for link in sorted(self._link_models):
            alpha, bytes_per_s = self._link_models[link]
            msgs, nbytes = link_msgs.get(link, 0.0), link_bytes.get(link, 0.0)
            raw[f"msgs::{link}"], raw[f"bytes::{link}"] = msgs, nbytes
            modelled = ((msgs - prev.get(f"msgs::{link}", 0.0)) * alpha
                        + (nbytes - prev.get(f"bytes::{link}", 0.0))
                        / bytes_per_s)
            key = _label_key({"link": link})
            put(bank.get_or_create(LINK_UTILIZATION, key), at,
                (modelled / dt) if dt > 0.0 else 0.0)
            put(bank.get_or_create(LINK_MODEL_RATIO, key), at,
                (net_delta / modelled) if modelled > 1e-12 else 0.0)
        self._prev = raw
        self._last_t = t


def _scripted(sampler_cls):
    """Drive a bare trace through label sets that appear mid-run, some
    sorting before every earlier one, plus a gauge and a late link."""
    trace = Trace()
    sampler = trace.attach_sampler(sampler_cls(interval=1e-3))
    busy = trace.metrics.counter(DEVICE_BUSY_UNION_SECONDS)
    msgs = trace.metrics.counter(COMM_MESSAGES)
    nbytes = trace.metrics.counter(COMM_BYTES)
    sampler.register_link_model("remote", latency_s=1e-5, bytes_per_s=1.0)
    busy.inc(0.3e-3, device="n1.gpu")
    msgs.inc(2, link="remote", src="r0")
    nbytes.inc(0.1, link="remote", src="r0")
    trace.tick(2.5e-3)
    busy.inc(0.7e-3, device="n0.cpu")  # new, sorts first
    busy.inc(0.2e-3, device="net.r0")
    trace.metrics.counter(DEVICE_BUSY_SECONDS).inc(0.3, device="net.r0",
                                                   kind="net")
    trace.metrics.gauge("prs_q").set(3, node="b")
    nbytes.inc(0.6, link="remote", src="r2")
    trace.tick(4e-3)
    # a link model registered with no registry change in between
    msgs.inc(1, link="local", src="r1")
    trace.tick(5e-3)
    sampler.register_link_model("local", latency_s=1e-6, bytes_per_s=1e10)
    trace.tick(6e-3)
    trace.metrics.gauge("prs_q").set(1, node="a")  # new, sorts first
    # sorted order sums 0.1 + 0.2 + 0.6 == 0.9; insertion order would
    # give 0.1 + 0.6 + 0.2 == 0.8999999999999999
    nbytes.inc(0.2, link="remote", src="r1")
    busy.inc(0.1e-3, device="n1.gpu")
    # one series written through a counter child and by labels alike
    trace.metrics.counter_child(COMM_MESSAGES, link="remote", src="r0").inc(4)
    msgs.inc(1, link="remote", src="r0")
    trace.tick(8e-3)
    sampler.finalize(8.5e-3)
    return sampler


def _idle_gap(sampler_cls):
    """A ring of 4 samples per series across a 50-instant idle stretch
    that one tick back-fills, with busy devices and a link on either
    side of it."""
    trace = Trace()
    sampler = trace.attach_sampler(sampler_cls(interval=1e-3, capacity=4))
    busy = trace.metrics.counter(DEVICE_BUSY_UNION_SECONDS)
    msgs = trace.metrics.counter(COMM_MESSAGES)
    sampler.register_link_model("remote", latency_s=1e-5, bytes_per_s=1e9)
    busy.inc(0.4e-3, device="n0.cpu")
    busy.inc(0.1e-3, device="n0.gpu")
    msgs.inc(3, link="remote", src="r0")
    trace.tick(1.5e-3)
    busy.inc(0.9e-3, device="n0.cpu")
    trace.metrics.gauge("prs_q").set(2, node="a")
    trace.tick(52.5e-3)  # instants 2..52 in one call
    # what the autoscaler reads mid-run
    reads = [(s.labels, len(s), s.mean(0.0, 1.0), s.vmax(0.0, 1.0))
             for s in sampler.bank.matching(DEVICE_BUSY_FRACTION)]
    busy.inc(0.5e-3, device="n0.gpu")
    msgs.inc(1, link="remote", src="r0")
    trace.tick(54e-3)
    sampler.finalize(54.5e-3)
    return sampler, reads


def _past_exact(sampler_cls):
    """Link totals that only a sum in sorted key order gets right: a
    byte total crosses 2**53, where adding one rounds, and a message
    term turns fractional mid-run."""
    trace = Trace()
    sampler = trace.attach_sampler(sampler_cls(interval=1e-3))
    msgs = trace.metrics.counter(COMM_MESSAGES)
    nbytes = trace.metrics.counter(COMM_BYTES)
    sampler.register_link_model("remote", latency_s=1e-5, bytes_per_s=1e9)
    nbytes.inc(2.0**53 - 2, link="remote", src="r0")
    nbytes.inc(1, link="remote", src="r1")
    msgs.inc(1, link="remote", src="r0")
    msgs.inc(3, link="remote", src="r2")
    trace.tick(1.5e-3)
    # 2**53 + 1 + 1 rounds to 2**53 in key order, not to the exact total
    nbytes.inc(2, link="remote", src="r0")
    nbytes.inc(1, link="remote", src="r2")
    trace.tick(3e-3)
    msgs.inc(0.1, link="remote", src="r0")
    trace.tick(4e-3)
    msgs.inc(0.2, link="remote", src="r1")  # new, sorts before r2
    nbytes.inc(2, link="remote", src="r1")
    trace.tick(6e-3)
    sampler.finalize(6.5e-3)
    return sampler


#: the end-to-end benchmark's workloads (the 1e-3 and 1e-4 grids and the
#: chaos fault plan), plus an autoscaled GMM run whose autoscaler reads
#: the bank at every iteration boundary
E2E_RUNS = ("gmm-kernel", "gemv-dispatch", "cmeans-chaos", "cmeans-observe",
            "gmm-kernel+autoscale")
AUTOSCALED = {"initial_nodes": 4, "autoscale": {
    "min_nodes": 2, "scale_down_busy_fraction": 1.1, "cooldown_s": 1e-3}}


def _run_e2e(name):
    """Op 0 at seed 7 of an ``E2E_RUNS`` entry."""
    import dataclasses

    from benchmarks.e2e.workloads import WORKLOADS, build_app, make_inputs
    from repro.runtime.job import JobConfig
    from repro.runtime.prs import PRSRuntime

    base, _, variant = name.partition("+")
    wl = WORKLOADS[base]
    config = dict(wl.config)
    if variant:
        wl = dataclasses.replace(wl, iterations=6)
        config.update(AUTOSCALED)
    app = build_app(wl, make_inputs(wl, 7, 0))
    return PRSRuntime(delta_cluster(wl.nodes), JobConfig(**config)).run(app)


class TestSnapshotPlan:
    def test_mid_run_label_sets_match_a_resort_per_snapshot(self):
        planned = _scripted(MetricSampler)
        resorted = _scripted(ResortingSampler)
        assert planned.bank.to_jsonl_lines() == resorted.bank.to_jsonl_lines()
        # the late label set starts at the first grid instant after it
        # appeared, and its busy fraction is derived from then on
        late = series_of(planned.bank, DEVICE_BUSY_UNION_SECONDS, device="n0.cpu")
        assert late.first_t == pytest.approx(3e-3)
        frac = series_of(planned.bank, DEVICE_BUSY_FRACTION, device="n0.cpu")
        assert len(frac) == len(late)
        assert series_of(planned.bank, "prs_q", node="a").first_t == pytest.approx(7e-3)
        local = series_of(planned.bank, LINK_UTILIZATION, link="local")
        assert local.first_t == pytest.approx(6e-3)

    def test_plan_is_released_by_finalize(self):
        sampler = _scripted(MetricSampler)
        assert sampler.finalized
        assert sampler._plan == {} and sampler._link_plan == []
        # the write set is dropped too: later writes record nothing
        registry = sampler._trace.metrics
        assert sampler._dirty is None and registry._dirty is None
        assert all(m._dirty is None for m in registry)
        registry.counter(COMM_MESSAGES).inc(1, link="remote", src="r0")
        assert registry._dirty is None

    def test_idle_gap_through_a_full_ring_matches_a_full_snapshot_per_instant(self):
        fast, fast_reads = _idle_gap(MetricSampler)
        full, full_reads = _idle_gap(ResortingSampler)
        assert fast_reads == full_reads
        assert fast.bank.to_jsonl_lines() == full.bank.to_jsonl_lines()
        assert fast.total_samples == full.total_samples
        cpu = series_of(fast.bank, DEVICE_BUSY_FRACTION, device="n0.cpu")
        # 55 grid instants and the end anchor written, 4 kept
        assert cpu.dropped == 52 and len(cpu) == 4
        assert [s.dropped for s in fast.bank] == [s.dropped for s in full.bank]
        assert [s.runs() for s in fast.bank] == [s.runs() for s in full.bank]

    def test_link_totals_past_exact_integers_match_a_full_snapshot(self):
        planned = _past_exact(MetricSampler)
        resorted = _past_exact(ResortingSampler)
        assert planned.bank.to_jsonl_lines() == resorted.bank.to_jsonl_lines()
        util = series_of(planned.bank, LINK_UTILIZATION, link="remote")
        # bytes 2**53 + 1 + 1 fold to 2**53: the instant after the
        # crossing models 1 extra byte, not 3
        assert util.points()[2] == (2e-3, pytest.approx(1e-6))

    @pytest.mark.parametrize("name", E2E_RUNS)
    def test_e2e_workloads_match_a_full_snapshot_per_instant(self, name, monkeypatch):
        from repro import obs

        fast = _run_e2e(name)
        monkeypatch.setattr(obs, "MetricSampler", ResortingSampler)
        full = _run_e2e(name)
        assert isinstance(full.trace.sampler, ResortingSampler)
        assert fast.makespan == full.makespan
        assert (fast.trace.sampler.bank.to_jsonl_lines()
                == full.trace.sampler.bank.to_jsonl_lines())
        assert ([a.to_dict() for a in fast.alerts]
                == [a.to_dict() for a in full.alerts])
        assert fast.sampler_samples == full.sampler_samples
        if "autoscale" in name:
            # each decision records the windowed means it read mid-run
            def decisions(result):
                return [(r.kind, r.inputs) for r in result.trace.audit.records
                        if r.kind.startswith("autoscale-")]
            assert fast.recovery.autoscale_decisions >= 1
            assert decisions(fast) == decisions(full)

    def test_faulted_elastic_run_matches_a_resort_per_snapshot(self, monkeypatch):
        # Joins, a GPU kill, dropped messages and a rank restart add
        # devices, links and counters mid-run.
        from repro import obs

        faults = ["join@2:t=0.005", "gpu_kill@0:t=0.01",
                  "msg_drop@1-0:count=2,t0=0", "rank_kill@1:t=0.02"]
        planned = run_cmeans(n_nodes=3, faults=faults, fault_seed=7,
                             initial_nodes=2)
        monkeypatch.setattr(obs, "MetricSampler", ResortingSampler)
        resorted = run_cmeans(n_nodes=3, faults=faults, fault_seed=7,
                              initial_nodes=2)
        assert isinstance(resorted.trace.sampler, ResortingSampler)
        assert planned.trace.sampler._plan == {}
        assert (planned.trace.sampler.bank.to_jsonl_lines()
                == resorted.trace.sampler.bank.to_jsonl_lines())
        assert ([a.to_dict() for a in planned.alerts]
                == [a.to_dict() for a in resorted.alerts])


class TestSamplerWork:
    """The sampler writes a series when it may have changed, not once
    per series per grid instant."""

    @pytest.mark.parametrize("name", ["cmeans-chaos", "cmeans-observe"])
    def test_series_writes_are_bounded_by_runs_and_derived_probes(
        self, name, monkeypatch
    ):
        writes = []
        for method in ("sample", "append"):
            def counted(series, *args, _write=getattr(Series, method)):
                writes.append(series)
                return _write(series, *args)
            monkeypatch.setattr(Series, method, counted)
        result = _run_e2e(name)
        sampler = result.trace.sampler
        runs = sum(len(s.runs()) + len(s.tail) for s in sampler.bank)
        derived = sum(
            1 for s in sampler.bank
            if s.name in (DEVICE_BUSY_FRACTION, DEVICE_IMBALANCE,
                          LINK_UTILIZATION, LINK_MODEL_RATIO)
        )
        snapshots = sampler._k + 1  # grid instants and the end anchor
        # a write per series per instant is over three times this bound
        assert len(writes) <= runs + derived * snapshots
        # repeats dominate these runs, so the bound is not vacuous
        assert result.sampler_samples > 3 * len(writes)

    def test_an_instant_pays_for_the_written_series_only(self, monkeypatch):
        # Counted, not timed: each series is planned once, and the
        # series writes per snapshot do not grow with the idle series.
        rows, plans, writes = [], [], []

        def counting(method, log):
            def counted(self, *args):
                log.append(args)
                return method(self, *args)
            return counted

        monkeypatch.setattr(MetricSampler, "_new_row",
                            counting(MetricSampler._new_row, rows))
        monkeypatch.setattr(MetricSampler, "_plan_entry",
                            counting(MetricSampler._plan_entry, plans))
        # every sampled write is a Series.sample call; a None marks the
        # start of each snapshot
        monkeypatch.setattr(Series, "sample", counting(Series.sample, writes))
        snapshot = MetricSampler._snapshot
        monkeypatch.setattr(MetricSampler, "_snapshot", lambda self, k: (
            writes.append(None), snapshot(self, k)))

        def writes_per_snapshot(idle):
            rows.clear(), plans.clear(), writes.clear()
            trace = Trace()
            for i in range(idle):
                trace.metrics.counter_child("prs_idle_total", n=i).inc(1)
            trace.attach_sampler(MetricSampler(interval=1e-3))
            hot = trace.metrics.counter_child("prs_hot_total")
            for k in range(40):
                hot.inc(1)
                trace.tick(k * 1e-3)
            counts = []
            for write in writes:
                if write is None:
                    counts.append(0)
                else:
                    counts[-1] += 1
            return counts

        few, many = writes_per_snapshot(10), writes_per_snapshot(1000)
        assert len(rows) == len(set(rows)) == len(plans) == 1001
        assert len(few) == len(many) == 40
        # the first snapshot samples every series bound before it ...
        assert many[0] - few[0] == 990
        # ... and each later one the written series alone
        assert many[1:] == few[1:] == [1] * 39

    def test_unsampled_registry_records_no_writes(self):
        trace = Trace()
        registry = trace.metrics
        registry.counter("c_total").inc(1, node="a")
        registry.counter_child("c_total", node="b").inc(2)
        registry.gauge("g").set(3)
        registry.gauge("g").inc(1)
        assert registry._dirty is None
        assert all(m._dirty is None for m in registry)

    def test_series_written_before_attach_are_sampled(self):
        trace = Trace()
        trace.metrics.counter("c_total").inc(5, node="a")
        sampler = trace.attach_sampler(MetricSampler(interval=1e-3))
        trace.tick(1e-3)
        series = series_of(sampler.bank, "c_total", node="a")
        assert series.points() == [(0.0, 5.0), (1e-3, 5.0)]
