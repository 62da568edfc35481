"""Golden fingerprints: an exact behaviour gate for the job driver.

Each scenario runs once and is reduced to a fingerprint: a sha256 of the
exact output bytes (and of the final model state, where the scenario
exposes its app), ``repr(makespan)``, the engine event count, the
iteration count, the span count, the fired alerts (rule names and
count), the comm graph's message and byte counts, the decision-record
and sampler-sample counts, ``repr`` of the critical path's work and
slack, of its slack decomposition, of GFLOP/s, of the worst model drift
and of every phase total, — when the job returned one — the recovery
summary's counts, and sha256 digests of the Prometheus exposition, of
the sampler bank's JSONL lines and of the record spans (id, parent id,
label, track, category, bounds and attrs).  ``fingerprints.json`` holds the committed
values and the tests only compare against it, so any refactor that moves
a single float, event, span, message or sample fails here.

Every row also passes the three consistency checks: the trace analysis
(critical path + slack tiles the makespan, the path is continuous, the
slack decomposition sums, send/recv spans pair 1:1),
``obs.check_profile`` (spans close and nest, phases tile the makespan)
and, for rows that log, ``unpaired_errors`` (every ERROR record pairs
with a recovery or alert span).

Scenarios: the standard sweep (``repro.cli.DEFAULT_WORKLOADS``)
× {fault-free, GPU kill, rank kill, dropped messages}; an obs-on twin
(every host observer at its most verbose) of the fault-free and rank-kill
rows; a fault-free row of ``cmeans-static`` and ``gmm-multirank`` under
every registered policy the sweep does not already run for that app
(block boundaries differ per policy); and the elastic chaos walk (2 -> 8
-> 4 ranks on an 8-node pool with a rank kill) next to its fault-free
twin.

After an intended behaviour change, regenerate the golden file with::

    PYTHONPATH=src python tests/integration/test_fingerprints.py --write

A change meant to move only the engine's event count rewrites just that
field with ``--write-events``, which exits non-zero and names the row and
field if anything else moved against the committed file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Any

if __package__ in (None, ""):  # run as a script: make the packages importable
    _ROOT = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

import pytest

from repro import obs
from repro.cli import DEFAULT_WORKLOADS, _run_workload
from repro.obs.analyze import analyze_run
from repro.obs.log import unpaired_errors
from repro.runtime.policies import available_policies
from tests.helpers import output_digest

GOLDEN = Path(__file__).with_name("fingerprints.json")

FAULT_ROWS: dict[str, list[str] | None] = {
    "fault-free": None,
    "gpu-kill": ["gpu_kill@1:t=0.002"],
    "rank-kill": ["rank_kill@1:t=0.003"],
    "msg-drop": ["msg_drop@1-0:count=2,t0=0"],
}
#: the obs-on twin: every host-side observer at its most verbose
OBS_ON: dict[str, Any] = dict(
    sample_interval=1e-4, log_level="debug", selfprof=True
)
OBS_ROWS = ("fault-free", "rank-kill")

#: the elastic chaos walk: six joins, a 3x network-degradation window,
#: a rank kill while 8 ranks are live, then three drains
CHAOS_WALK = [
    "join@2:t=0.04", "join@3:t=0.04", "join@4:t=0.04",
    "join@5:t=0.04", "join@6:t=0.04", "join@7:t=0.04",
    "net_slow@*:factor=3,t0=0.05,t1=0.07",
    "rank_kill@6:t=0.07",
    "drain@4:t=0.10", "drain@5:t=0.10", "drain@7:t=0.10",
]
CHAOS_SCENARIOS = {"chaos-walk/gmm": CHAOS_WALK, "chaos-twin/gmm": None}

_WORKLOADS = {spec.name: spec for spec in DEFAULT_WORKLOADS}

#: workloads re-run fault-free under every policy not already swept for
#: their app, named ``<workload>@<policy>``
POLICY_BASES = ("cmeans-static", "gmm-multirank")


def policy_workloads() -> list[str]:
    swept = {(spec.app, spec.policy) for spec in DEFAULT_WORKLOADS}
    return [
        f"{base}@{policy}"
        for base in POLICY_BASES
        for policy in available_policies()
        if (_WORKLOADS[base].app, policy) not in swept
    ]


def scenario_names() -> list[str]:
    names = [
        f"{spec.name}/{row}" for spec in DEFAULT_WORKLOADS for row in FAULT_ROWS
    ]
    names += [
        f"{spec.name}/{row}+obs" for spec in DEFAULT_WORKLOADS for row in OBS_ROWS
    ]
    names += [f"{workload}/fault-free" for workload in policy_workloads()]
    return names + list(CHAOS_SCENARIOS)


def run_scenario(name: str):
    """Run one named scenario; returns its ``JobResult`` and the app's
    final model state (``None`` for the standard sweep, whose runner
    keeps the app to itself)."""
    if name in CHAOS_SCENARIOS:
        from repro.apps.gmm import GMMApp
        from repro.data.synth import gaussian_mixture
        from repro.hardware import delta_cluster
        from repro.runtime.job import JobConfig
        from repro.runtime.prs import PRSRuntime

        pts, _, _ = gaussian_mixture(2000, 6, 3, seed=6)
        app = GMMApp(pts, 3, seed=6, max_iterations=12)
        config = JobConfig(faults=CHAOS_SCENARIOS[name], initial_nodes=2)
        result = PRSRuntime(delta_cluster(n_nodes=8), config).run(app)
        return result, app.iteration_state()
    workload, _, row = name.partition("/")
    row, _, obs = row.partition("+")
    workload, _, policy = workload.partition("@")
    spec = _WORKLOADS[workload]
    if policy:
        spec = dataclasses.replace(spec, policy=policy)
    overrides = dict(OBS_ON) if obs else {}
    result = _run_workload(spec, faults=FAULT_ROWS[row], **overrides)
    return result, None


def recovery_counts(summary) -> dict[str, Any] | None:
    if summary is None:
        return None
    out = {
        key: value
        for key, value in summary.to_dict().items()
        if isinstance(value, int) and not isinstance(value, bool)
    }
    out["dead_nodes"] = list(summary.dead_nodes)
    out["epochs"] = [
        f"{e.cause}:{','.join(map(str, e.members))}" for e in summary.epochs
    ]
    return out


def _reprs(values: dict[str, float]) -> dict[str, str]:
    return {key: repr(value) for key, value in sorted(values.items())}


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def record_spans_digest(trace) -> str:
    """sha256 of every record span: id, parent id, label, track,
    category, bounds and attrs, in record order."""
    return _sha256(
        repr((s.span_id, s.parent_id, s.name, s.track, s.category,
              s.start, s.end, s.attrs))
        for s in trace._record_spans
    )


@lru_cache(maxsize=None)
def fingerprint(name: str) -> dict[str, Any]:
    """The exact, JSON-ready behaviour fingerprint of one scenario.

    Runs the three consistency checks on the way: a row whose trace does
    not tile, pair or close fails here before its fields are compared.
    """
    result, model = run_scenario(name)
    analysis = analyze_run(result)
    assert analysis.check() == [], name
    assert obs.check_profile(result.trace, result.makespan) == [], name
    if result.logs is not None:
        assert unpaired_errors(result.logs, result.trace.tracer) == [], name
    path = analysis.critical_path
    return {
        "digest": output_digest(result.output),
        "model": output_digest(model) if model is not None else None,
        "makespan": repr(result.makespan),
        "engine_events": result.engine_events,
        "iterations": result.iterations,
        "spans": len(result.trace.tracer),
        "alerts": sorted({a.rule for a in result.alerts}),
        "alerts_fired": len(result.alerts),
        "recovery": recovery_counts(result.recovery),
        "comm_messages": len(analysis.comm),
        "comm_bytes": analysis.comm.total_bytes,
        "decision_records": len(result.trace.audit.records),
        "sampler_samples": result.sampler_samples,
        "critical_path_work_s": repr(path.work),
        "critical_path_slack_s": repr(path.slack),
        "slack_decomposition_s": _reprs(path.slack_decomposition()),
        "gflops": repr(result.gflops),
        "max_abs_drift": repr(analysis.max_abs_drift),
        "phase_totals_s": _reprs(result.phase_totals()),
        "metrics_sha256": _sha256([result.trace.metrics.render()]),
        "series_sha256": (
            _sha256(result.trace.sampler.bank.to_jsonl_lines())
            if result.trace.sampler is not None else None
        ),
        "records_sha256": record_spans_digest(result.trace),
    }


def load_golden() -> dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario():
    assert sorted(load_golden()) == sorted(scenario_names())


@pytest.mark.parametrize("name", scenario_names())
def test_fingerprint_matches_golden(name):
    golden = load_golden()
    assert name in golden, f"no golden fingerprint for {name}; run --write"
    assert fingerprint(name) == golden[name]


@pytest.mark.parametrize("name", scenario_names())
def test_every_row_audits_a_decision(name):
    assert fingerprint(name)["decision_records"] >= 1


@pytest.mark.parametrize("workload", ("cmeans-static", "cmeans-adaptive"))
def test_pre_split_policies_track_the_model(workload):
    """The simulator executes the roofline model Equation (8) was solved
    against, so the pre-split policies' observed split stays close to the
    predicted one."""
    drift = float(fingerprint(f"{workload}/fault-free")["max_abs_drift"])
    assert drift <= 0.05


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
@pytest.mark.parametrize("row", OBS_ROWS)
def test_obs_twin_does_not_perturb(workload, row):
    """Observers are host bookkeeping: the simulated run is unchanged."""
    plain = fingerprint(f"{workload}/{row}")
    observed = fingerprint(f"{workload}/{row}+obs")
    # the twin samples at 1e-4 s instead of the default 1e-3 s: its
    # sample count and sampled series differ by construction
    for key in plain.keys() - {"sampler_samples", "series_sha256"}:
        assert observed[key] == plain[key], key


def test_chaos_walk_is_bitwise_identical_to_its_twin():
    """Elasticity and a rank kill move work between ranks, never a float."""
    walk = fingerprint("chaos-walk/gmm")
    twin = fingerprint("chaos-twin/gmm")
    assert walk["digest"] == twin["digest"]
    assert walk["model"] == twin["model"]
    assert walk["iterations"] == twin["iterations"]
    rec = walk["recovery"]
    sizes = [len(epoch.split(":")[1].split(",")) for epoch in rec["epochs"]]
    assert sizes[0] == 2 and max(sizes) == 8 and sizes[-1] == 4, sizes
    assert rec["rank_restarts"] >= 1
    assert rec["dead_nodes"] == [6]
    assert "membership-churn" in walk["alerts"]


def _dump(golden: dict[str, Any]) -> None:
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _write() -> None:
    golden = {name: fingerprint(name) for name in scenario_names()}
    _dump(golden)
    print(f"wrote {len(golden)} fingerprints to {GOLDEN}")


def _write_events() -> int:
    """Rewrite only each row's ``engine_events``; refuse (exit 1, naming
    each row and field) when any other field differs from the committed
    file, so a change that moves events alone can be proven to move
    nothing else."""
    golden = load_golden()
    if sorted(golden) != sorted(scenario_names()):
        print("the golden rows differ from the scenarios; run --write")
        return 1
    moved = []
    rows = {name: fingerprint(name) for name in scenario_names()}
    for name, row in rows.items():
        for field in sorted(row.keys() | golden[name].keys()):
            if field != "engine_events" and row.get(field) != golden[name].get(field):
                moved.append(
                    f"{name}: {field}: committed {golden[name].get(field)!r}, "
                    f"now {row.get(field)!r}"
                )
    if moved:
        print("\n".join(moved))
        print(f"{len(moved)} field(s) besides engine_events moved; nothing written")
        return 1
    for name, row in rows.items():
        before = golden[name]["engine_events"]
        after = golden[name]["engine_events"] = row["engine_events"]
        print(f"{name}: {before} -> {after}")
    _dump(golden)
    print(f"rewrote engine_events of {len(golden)} fingerprints in {GOLDEN}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        _write()
    elif sys.argv[1:] == ["--write-events"]:
        sys.exit(_write_events())
    else:
        sys.exit(f"usage: {sys.argv[0]} --write | --write-events")
