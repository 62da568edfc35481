"""Host-side self-profiler: scope accounting, coalesced engine dispatch,
the zero-perturbation contract, schema-v2 profile round-trips, and the
flamegraph exports."""

import json

import pytest

from repro.apps.cmeans import CMeansApp
from repro.data.synth import gaussian_mixture
from repro.hardware import delta_cluster
from repro.obs import MetricSampler
from repro.obs.profile import loads_profile, profile_jsonl
from repro.obs.selfprof import ROOT_SCOPE, HostNode, HostProfile, SelfProfiler
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime
from repro.simulate.engine import Engine
from repro.simulate.trace import Trace


def run_cmeans(**config_kwargs):
    pts, _, _ = gaussian_mixture(600, 8, 4, seed=3)
    app = CMeansApp(pts, 4, seed=3, max_iterations=3, epsilon=1e-12)
    return PRSRuntime(delta_cluster(2), JobConfig(**config_kwargs)).run(app)


class TestSelfProfilerScopes:
    def test_nested_scope_accounting(self):
        prof = SelfProfiler()
        prof.start()
        prof.begin("kernel:cpu-map")
        prof.begin("alloc:region")
        prof.end()
        prof.end()
        prof.begin("kernel:cpu-map")
        prof.end()
        prof.stop()

        kernel = prof.root.children["kernel:cpu-map"]
        alloc = kernel.children["alloc:region"]
        assert kernel.calls == 2
        assert alloc.calls == 1
        # inclusive nests: the child's time is inside the parent's
        assert kernel.inclusive_s >= alloc.inclusive_s
        assert kernel.exclusive_s == pytest.approx(
            kernel.inclusive_s - alloc.inclusive_s)
        # and the root swallows everything
        assert prof.root.inclusive_s == pytest.approx(prof.wall_s)
        assert prof.root.inclusive_s >= kernel.inclusive_s

    def test_same_name_under_different_parents_gets_own_node(self):
        prof = SelfProfiler()
        prof.start()
        for parent in ("kernel:cpu-map", "comm:deliver"):
            prof.begin(parent)
            prof.begin("alloc:region")
            prof.end()
            prof.end()
        prof.stop()
        a = prof.root.children["kernel:cpu-map"].children["alloc:region"]
        b = prof.root.children["comm:deliver"].children["alloc:region"]
        assert a is not b
        assert a.calls == b.calls == 1

    def test_stop_unwinds_abandoned_scopes(self):
        prof = SelfProfiler()
        prof.start()
        prof.begin("engine:event")
        prof.begin("kernel:cpu-map")  # never ended — simulated crash
        prof.stop()
        assert prof.root.children["engine:event"].calls == 1
        engine = prof.root.children["engine:event"]
        assert engine.children["kernel:cpu-map"].calls == 1
        assert prof.wall_s > 0.0

    def test_stop_unwinds_open_dispatch_frame(self):
        # A coalesced dispatch scope stays open after dispatch() returns;
        # stop() must close it without double-counting a call.
        prof = SelfProfiler()
        prof.start()
        prof.dispatch(object(), [], lambda p, e, c: ("engine:resume:rank",
                                                     False))
        prof.stop()
        node = prof.root.children["engine:resume:rank"]
        assert node.calls == 1
        assert node.inclusive_s > 0.0
        assert prof.root.inclusive_s == pytest.approx(prof.wall_s)
        closed = node.inclusive_s
        prof.flush_dispatch()  # stop() left nothing open to close
        assert node.inclusive_s == closed

    def test_flush_dispatch_noop_when_nothing_open(self):
        prof = SelfProfiler()
        prof.start()
        prof.flush_dispatch()  # must not pop the root frame
        prof.begin("engine:event")
        prof.end()
        prof.stop()
        assert prof.root.children["engine:event"].calls == 1

    def test_start_twice_rejected(self):
        prof = SelfProfiler()
        prof.start()
        with pytest.raises(RuntimeError, match="twice"):
            prof.start()

    def test_stop_before_start_rejected(self):
        with pytest.raises(RuntimeError, match="before start"):
            SelfProfiler().stop()

    def test_dispatch_key_strips_digits_and_memoizes(self):
        prof = SelfProfiler()
        k0 = prof.dispatch_key("rank0", "resume")
        k1 = prof.dispatch_key("rank1", "resume")
        assert k0 == "engine:resume:rank"
        assert k1 == k0
        assert prof.dispatch_key("delta00.gpu1.blk", "resume") == (
            "engine:resume:delta.gpu.blk")
        # memoized: same raw string returns the identical object
        assert prof.dispatch_key("rank0", "resume") is k0

    def test_node_for_returns_stable_root_child(self):
        prof = SelfProfiler()
        node = prof.node_for("engine:timeout")
        assert prof.node_for("engine:timeout") is node
        assert prof.root.children["engine:timeout"] is node


def _workload(engine):
    """Two process classes interleaved on one engine, plus a timeout and
    a bare event nobody waits on."""

    def sleeper(n):
        for _ in range(n):
            yield engine.timeout(1.0)

    engine.process(sleeper(3), name="worker0")
    engine.process(sleeper(1), name="reader0")
    engine.process(sleeper(2), name="worker1")
    engine.timeout(0.5)
    engine.event().succeed()


class TestEngineDispatch:
    """Engine.run hands every event to SelfProfiler.dispatch."""

    @pytest.mark.parametrize("until", ["drain", "event"])
    def test_each_event_charged_to_its_class(self, until):
        engine = Engine()
        prof = engine.selfprof = SelfProfiler()
        prof.start()
        _workload(engine)
        if until == "event":
            engine.run(engine.timeout(10.0))
        else:
            engine.run()
        # the run loop closed its dispatch scope: later work is not
        # charged to the last dispatched event class
        prof.begin("post")
        prof.end()
        prof.stop()
        calls = {name: node.calls for name, node in prof.root.children.items()}
        assert calls == {
            # bootstrap + one resume per timeout, per process
            "engine:resume:worker": (1 + 3) + (1 + 2),
            "engine:resume:reader": 1 + 1,
            "engine:exit:worker": 2,
            "engine:exit:reader": 1,
            "engine:timeout": 1 + (until == "event"),
            "engine:event": 1,
            "post": 1,
        }
        assert sum(calls.values()) - 1 == engine.events_scheduled
        # dispatch scopes are root-level leaves
        assert all(not node.children for name, node
                   in prof.root.children.items() if name != "post")

    def test_cached_scopes_match_a_fresh_classification(self, monkeypatch):
        # The per-name caches (resumes by owner, exits by the exiting
        # process) charge each event where classifying it afresh would.
        fresh: dict[str, int] = {}
        real = SelfProfiler.dispatch

        def spy(self, event, callbacks, classify):
            scope = classify(self, event, callbacks)[0]
            fresh[scope] = fresh.get(scope, 0) + 1
            real(self, event, callbacks, classify)

        monkeypatch.setattr(SelfProfiler, "dispatch", spy)
        pts, _, _ = gaussian_mixture(2000, 8, 4, seed=3)
        config = JobConfig(selfprof=True, scheduling="dynamic")
        result = PRSRuntime(delta_cluster(n_nodes=2), config).run(
            CMeansApp(pts, 4, seed=3, max_iterations=3)
        )
        calls = {
            name: node.calls
            for name, node in result.selfprofile.root.children.items()
            if name.startswith("engine:")
        }
        assert any(name.startswith("engine:exit:") for name in calls)
        assert calls == fresh

    def test_null_profiler_is_the_default(self):
        engine = Engine()
        _workload(engine)
        engine.run()
        assert not engine.selfprof.enabled
        assert not Trace().selfprof.enabled


class TestSamplerScope:
    """MetricSampler.advance opens ``obs:sampler`` only on a grid instant."""

    def test_scope_only_when_a_grid_instant_elapsed(self):
        trace = Trace()
        prof = SelfProfiler()
        trace.attach_selfprof(prof)
        trace.attach_sampler(MetricSampler(interval=1e-3))
        prof.start()
        trace.tick(0.0)  # grid 0
        trace.tick(0.5e-3)  # no grid instant
        trace.tick(5.5e-3)  # grids 1..5 in one scope
        prof.stop()
        assert prof.root.children["obs:sampler"].calls == 2

    def test_selfprofiled_run_charges_the_sampler(self):
        sampled = run_cmeans(selfprof=True).selfprofile
        unsampled = run_cmeans(selfprof=True, sample_interval=None).selfprofile
        sampler = [n for _, n in sampled.nodes() if n.name == "obs:sampler"]
        assert sampler and all(n.calls > 0 for n in sampler)
        assert not [n for _, n in unsampled.nodes()
                    if n.name == "obs:sampler"]


class TestHostProfile:
    def _profile(self):
        prof = SelfProfiler()
        prof.start()
        prof.begin("kernel:cpu-map")
        prof.begin("alloc:region")
        prof.end()
        prof.end()
        prof.begin("comm:deliver")
        prof.end()
        return prof.profile(meta={"makespan_s": 2.0, "engine_events": 1000,
                                  "app": "cmeans"})

    def test_section_shares_sum_to_wall(self):
        host = self._profile()
        shares = host.section_shares()
        assert set(shares) >= {"kernel", "alloc", "comm", "other"}
        assert sum(shares.values()) == pytest.approx(host.wall_s, abs=1e-6)

    def test_meta_derived_throughput(self):
        host = self._profile()
        assert host.makespan_s == 2.0
        assert host.engine_events == 1000
        assert host.sim_per_wall == pytest.approx(2.0 / host.wall_s)
        assert host.events_per_sec == pytest.approx(1000 / host.wall_s)

    def test_top_exclusive_ranked_and_normalized(self):
        host = self._profile()
        top = host.top_exclusive(10)
        assert top  # at least the root qualifies
        excl = [row["exclusive_s"] for row in top]
        assert excl == sorted(excl, reverse=True)
        for row in top:
            assert 0.0 <= row["share"] <= 1.0
            assert row["path"].startswith(ROOT_SCOPE)

    def test_dict_round_trip(self):
        host = self._profile()
        clone = HostProfile.from_dict(host.to_dict())
        assert clone.to_dict() == host.to_dict()
        assert clone.wall_s == host.wall_s
        assert clone.meta == host.meta

    def test_newer_schema_rejected(self):
        payload = self._profile().to_dict()
        payload["schema_version"] = HostProfile.SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer than this reader"):
            HostProfile.from_dict(payload)

    def test_collapsed_stack_format(self):
        host = self._profile()
        for line in host.to_collapsed().strip().splitlines():
            path, weight = line.rsplit(" ", 1)
            assert path.startswith(ROOT_SCOPE)
            assert int(weight) > 0

    def test_speedscope_export(self):
        host = self._profile()
        doc = json.loads(host.to_speedscope())
        profile = doc["profiles"][0]
        assert profile["unit"] == "seconds"
        assert len(profile["samples"]) == len(profile["weights"])
        assert sum(profile["weights"]) == pytest.approx(
            host.wall_s, rel=1e-3)
        n_frames = len(doc["shared"]["frames"])
        assert all(i < n_frames for s in profile["samples"] for i in s)

    def test_exclusive_floor_at_zero(self):
        node = HostNode("engine:event")
        node.inclusive_s = 1.0
        child = node.children["kernel:x"] = HostNode("kernel:x")
        child.inclusive_s = 1.5  # clock granularity artifact
        assert node.exclusive_s == 0.0


class TestSelfProfiledRun:
    def test_profile_attached_and_attributes_real_work(self):
        result = run_cmeans(selfprof=True)
        host = result.selfprofile
        assert host is not None
        assert host.wall_s > 0.0
        assert host.engine_events == result.engine_events
        assert host.makespan_s == pytest.approx(result.makespan)
        shares = host.section_shares()
        # the big three subsystems must all show up in a real run
        assert {"engine", "kernel", "obs"} <= set(shares)
        assert host.top_exclusive(5)

    def test_disabled_by_default(self):
        assert run_cmeans().selfprofile is None

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_selfprof_must_be_a_bool(self, value):
        with pytest.raises(TypeError, match="selfprof.*" + type(value).__name__):
            JobConfig(selfprof=value)

    def test_zero_perturbation(self):
        plain = run_cmeans()
        prof = run_cmeans(selfprof=True)
        assert prof.engine_events == plain.engine_events
        assert prof.makespan == plain.makespan
        assert prof.sampler_samples == plain.sampler_samples
        assert set(prof.output) == set(plain.output)
        for key, value in prof.output.items():
            other = plain.output[key]
            if hasattr(value, "tobytes"):
                assert value.tobytes() == other.tobytes(), key
            else:
                assert repr(value) == repr(other), key

    def test_profile_jsonl_round_trip(self):
        result = run_cmeans(selfprof=True)
        text = profile_jsonl(result.trace, {"app": "cmeans"},
                             host=result.selfprofile)
        loaded = loads_profile(text)
        assert loaded.host is not None
        assert loaded.host.to_dict() == result.selfprofile.to_dict()

    def test_v1_profile_loads_with_host_none(self):
        result = run_cmeans()
        text = profile_jsonl(result.trace, {"app": "cmeans"})
        assert '"host_profile"' not in text
        assert loads_profile(text).host is None
