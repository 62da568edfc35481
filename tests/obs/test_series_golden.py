"""Golden digests of sampled series and of the dashboards they render.

Two runs are reduced to sha256 digests and compared with the committed
values in ``golden_series.json``:

* ``observe`` — C-means with the adaptive-feedback policy, a 0.1 ms
  sampling grid and a debug event log (host self-profiling off, so the
  bytes are deterministic);
* ``chaos`` — C-means on the fault-tolerant elastic driver: two joins, a
  GPU kill, dropped messages and a rank restart.

Per run, one digest covers the expanded series (name, labels, the
``repr`` of every ``(t, v)`` point, ``dropped``) and one the dashboard
HTML rendered from the run's saved-then-loaded profile.  The schema
version the writer stamps into the meta header is removed before
rendering: it is the one dashboard byte a schema bump changes on purpose.

A third digest pins the dashboard of ``cmeans_v3.profile.jsonl``, a
schema-v3 profile written by

    repro trace export --app cmeans --size 300 --nodes 2 --iterations 2 --format profile

so old files keep loading and rendering byte for byte.  The digest sits
in ``cmeans_v3.dashboard.html.sha256`` in ``sha256sum -c`` form (CI
checks the same file through the ``repro dashboard`` command).

After an intended change to sampled values or dashboard bytes,
regenerate the run digests with::

    PYTHONPATH=src python tests/obs/test_series_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make the packages importable
    _ROOT = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

import pytest

from repro.apps.cmeans import CMeansApp
from repro.data.synth import gaussian_mixture
from repro.hardware import delta_cluster
from repro.obs.dashboard import render_dashboard
from repro.obs.profile import load_profile, loads_profile, profile_jsonl
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_series.json"
V3_PROFILE = HERE / "cmeans_v3.profile.jsonl"
V3_DIGEST = HERE / "cmeans_v3.dashboard.html.sha256"

CHAOS_PLAN = [
    "join@2:t=0.005",
    "join@3:t=0.005",
    "gpu_kill@0:t=0.01",
    "msg_drop@1-0:count=2,t0=0",
    "rank_kill@2:t=0.05",
]

RUNS = {
    "observe": dict(
        rows=1000, nodes=2, iterations=3,
        config=dict(scheduling="adaptive-feedback", sample_interval=1e-4,
                    log_level="debug", selfprof=False),
    ),
    "chaos": dict(
        rows=600, nodes=4, iterations=4,
        config=dict(initial_nodes=2, faults=CHAOS_PLAN),
    ),
}


@lru_cache(maxsize=None)
def run(name: str):
    spec = RUNS[name]
    points, _, _ = gaussian_mixture(spec["rows"], 16, 5, seed=11)
    app = CMeansApp(points, 5, seed=11, max_iterations=spec["iterations"],
                    epsilon=1e-12)
    config = JobConfig(**spec["config"])
    return app, PRSRuntime(delta_cluster(spec["nodes"]), config).run(app)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def series_digest(bank) -> str:
    h = hashlib.sha256()
    for series in bank:  # sorted (name, labels)
        h.update(repr((
            series.name, sorted(series.labels.items()),
            series.points(), series.dropped,
        )).encode("utf-8"))
    return h.hexdigest()


def dashboard_digest(app, result) -> str:
    meta = {"app": app.name, "makespan_s": result.makespan,
            "policy": result.policy, "iterations": result.iterations}
    profile = loads_profile(profile_jsonl(result.trace, meta))
    profile.meta.pop("schema_version")
    return sha256(render_dashboard(profile))


def digests(name: str) -> dict[str, str]:
    app, result = run(name)
    return {
        "series": series_digest(result.trace.sampler.bank),
        "dashboard": dashboard_digest(app, result),
    }


def pinned_v3_digest() -> str:
    digest, filename = V3_DIGEST.read_text().split()
    assert filename == "cmeans_v3.dashboard.html"
    return digest


@pytest.mark.parametrize("name", sorted(RUNS))
def test_series_match_golden(name):
    assert digests(name)["series"] == json.loads(GOLDEN.read_text())[name]["series"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_dashboard_matches_golden(name):
    assert (digests(name)["dashboard"]
            == json.loads(GOLDEN.read_text())[name]["dashboard"])


def test_runs_exercise_sampling_restarts_and_alerts():
    # The digests only guard what the runs exercise: a dense grid,
    # and (chaos) a rank restart and alert firings.
    _, observe = run("observe")
    assert observe.sampler_samples > 10_000
    _, chaos = run("chaos")
    assert chaos.recovery is not None and chaos.recovery.rank_restarts >= 1
    assert chaos.alerts


def test_v3_profile_fixture_renders_pinned_dashboard():
    profile = load_profile(str(V3_PROFILE))
    assert profile.meta["schema_version"] == 3
    assert profile.bank is not None and len(profile.bank) > 0
    assert sha256(render_dashboard(profile)) == pinned_v3_digest()


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_series_golden.py --write")
    GOLDEN.write_text(json.dumps(
        {name: digests(name) for name in sorted(RUNS)}, indent=2,
        sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDEN}")
