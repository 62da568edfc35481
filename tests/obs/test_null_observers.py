"""The null-observer seam: write sites never see ``None``.

With host profiling or logging off, the trace and the engine hold a
do-nothing twin (``NULL_PROFILER`` / ``NULL_LOG``) that every
instrumentation site calls unconditionally.  A twin missing a method
would only raise once the (possibly cold, fault-path) site calling it
fires, so these tests pin the twins to the real observers' write-side
API, and pin that the read side still reports "no observer" as None.
"""

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.apps.cmeans import CMeansApp
from repro.data.synth import gaussian_mixture
from repro.hardware import delta_cluster
from repro.obs.log import NULL_LOG, EventLog, NullLog
from repro.obs.profile import profile_jsonl
from repro.obs.selfprof import NULL_PROFILER, NullProfiler, SelfProfiler
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime

#: what instrumentation sites may call on a profiler / a log that may be
#: the null twin (properties answer False, or empty for ``dumps``)
PROFILER_WRITE_API = ("begin", "end", "dispatch", "flush_dispatch", "enabled")
LOG_WRITE_API = (
    "emit", "debug", "info", "warning", "error", "dump",
    "wants_debug", "dumps", "enabled",
)

#: calls made only on an observer known to be real: PRSRuntime starts,
#: stops and freezes the profiler it created (after asking ``enabled``),
#: and ``Trace.attach_log`` binds the log it is handed
REAL_ONLY = {"start", "stop", "profile", "bind_phases"}

#: the modules holding write-side instrumentation sites
WRITE_SITE_MODULES = (
    "simulate/engine.py",
    "simulate/trace.py",
    "simulate/faults.py",
    "runtime/daemons.py",
    "runtime/scheduler.py",
    "runtime/policies/base.py",
    "runtime/prs.py",
    "comm/mpi.py",
    "obs/timeseries.py",
)

OBSERVER_NAMES = {"prof": "profiler", "selfprof": "profiler", "log": "log"}


def _observer_calls() -> dict[str, set[str]]:
    """Attribute names used on ``prof``/``selfprof``/``log`` (bare names
    or attributes, e.g. ``trace.log.error``) across the write sites."""
    root = Path(repro.__file__).parent
    found: dict[str, set[str]] = {"profiler": set(), "log": set()}
    for rel in WRITE_SITE_MODULES:
        tree = ast.parse((root / rel).read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value
            name = (
                base.id if isinstance(base, ast.Name)
                else base.attr if isinstance(base, ast.Attribute)
                else None
            )
            kind = OBSERVER_NAMES.get(name)
            if kind is not None:
                found[kind].add(node.attr)
    return found


class TestTwinParity:
    @pytest.mark.parametrize("real,null,api", [
        (SelfProfiler, NullProfiler, PROFILER_WRITE_API),
        (EventLog, NullLog, LOG_WRITE_API),
    ])
    def test_null_twin_has_every_write_call(self, real, null, api):
        for name in api:
            assert hasattr(null, name), f"{null.__name__} lacks {name}"
            real_attr = inspect.getattr_static(real, name, None)
            if inspect.isfunction(real_attr):
                null_attr = inspect.getattr_static(null, name)
                assert inspect.isfunction(null_attr), name
                assert inspect.signature(null_attr) == inspect.signature(
                    real_attr), name

    def test_sites_call_only_the_write_api(self):
        calls = _observer_calls()
        assert calls["profiler"] - REAL_ONLY <= set(PROFILER_WRITE_API)
        assert calls["log"] - REAL_ONLY <= set(LOG_WRITE_API)
        # the scan sees the sites at all
        assert {"begin", "end", "dispatch"} <= calls["profiler"]
        assert {"error", "dump", "wants_debug"} <= calls["log"]

    def test_null_twins_answer_off_and_do_nothing(self):
        assert NULL_PROFILER.enabled is False
        assert SelfProfiler.enabled is True
        assert NULL_LOG.enabled is False
        assert EventLog.enabled is True
        # hot debug sites skip formatting on this predicate
        assert NULL_LOG.wants_debug is False
        assert NULL_LOG.dumps == ()
        assert NULL_LOG.error("x", "y", t=0.0, rank=1, k=2) is None
        assert NULL_LOG.dump("fault", "cause", 0.0) is None
        NULL_PROFILER.begin("x")
        NULL_PROFILER.end()
        NULL_PROFILER.dispatch(None, [], None)
        NULL_PROFILER.flush_dispatch()
        # stateless: a shared instance cannot leak records between runs
        assert not hasattr(NULL_LOG, "__dict__")
        assert not hasattr(NULL_PROFILER, "__dict__")


class TestEveryObserverOff:
    def test_read_side_reports_none(self):
        pts, _, _ = gaussian_mixture(400, 4, 3, seed=5)
        app = CMeansApp(pts, 3, seed=5, max_iterations=2, epsilon=1e-12)
        config = JobConfig(sample_interval=None, selfprof=False,
                           log_level=None)
        result = PRSRuntime(delta_cluster(2), config).run(app)
        assert result.logs is None
        assert result.selfprofile is None
        assert result.sampler_samples == 0
        assert result.trace.log is NULL_LOG
        assert result.trace.selfprof is NULL_PROFILER
        text = profile_jsonl(result.trace, {"app": "cmeans"},
                             host=result.selfprofile)
        for line_kind in ('"log_meta"', '"log"', '"log_dump"',
                          '"host_profile"'):
            assert line_kind not in text
