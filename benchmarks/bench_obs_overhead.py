"""Time-series sampler overhead: sampled vs unsampled runs.

The sampler (:mod:`repro.obs.timeseries`) promises zero perturbation:
it is tick-driven bookkeeping that schedules no simulation events, so a
run with sampling enabled must cost the *same simulated work* as one
without.  This benchmark runs the standard baseline sweep twice per
workload — default sampling vs ``sample_interval=None`` — and gates on:

* engine-event overhead strictly under 3% (by construction it is
  exactly 0 — the bound leaves headroom for a future sampler that
  legitimately needs an event or two, and makes the contract explicit);
* bitwise-identical makespans (the strongest cheap proxy for "the
  schedule did not move");
* a non-trivial number of captured samples, so the zero-overhead claim
  is not vacuous.

It also reports, without gating it, the sampler's host cost: per
workload, the calibrated host share of a sampled run that the sampler
takes (``sampler_host_share``, from the paired estimator below), and
their time-weighted mean over the sweep.

The host self-profiler (:mod:`repro.obs.selfprof`) makes the same
promise one level down: it watches the *simulator's own* wall-clock, so
``test_selfprof_overhead`` gates that a selfprofiled run (a) leaves all
simulated results — engine events, makespan, reduce outputs, sampler
samples — bitwise identical, and (b) costs under 5% extra host time
over the sweep.  Host timing on a shared box is noisy on the scale of
whole runs, so the estimator follows the ``benchmarks/e2e`` protocol
(see its README): every run is timed in *calibrated seconds* — raw wall
time scaled by a fixed pure-Python probe timed just before and just
after it, so host contention that slows the run slows the probe alike
— with the previous run's garbage collected outside the timed region.
Plain and selfprof runs alternate in adjacent pairs, the order flipped
on every pair; the per-workload overhead is the *median* pair ratio,
and the sweep number weights those medians by each workload's
calibrated plain time.  The gate takes the best of up to three
attempts, every attempt recorded in the saved JSON.

The structured event log (:mod:`repro.obs.log`) joins the same
contract in ``test_logging_overhead``: a ``log_level="debug"`` run must
leave every simulated result bitwise identical and cost under 5% extra
host time, measured with the same calibrated paired estimator.  Its
sweep is recorded under the ``"logging"`` key of
``BENCH_obs_overhead.json``.

Regenerates ``benchmarks/results/BENCH_obs_overhead.json`` and
``benchmarks/results/BENCH_selfprof_overhead.json``.
"""

from __future__ import annotations

import dataclasses
import gc
import json

import pytest

from statistics import median
from time import perf_counter

from _harness import RESULTS_DIR, once, save_json, save_table
from e2e.run import calibrated, probe
from repro.analysis.tables import format_table
from repro.cli import DEFAULT_WORKLOADS, _run_workload

#: hard ceiling on relative engine-event overhead from sampling
MAX_EVENT_OVERHEAD = 0.03

#: hard ceiling on relative host-time overhead of ``selfprof=True``
#: over the whole sweep (per-workload numbers are recorded but not gated
#: — sub-second runs are too noisy individually)
MAX_SELFPROF_OVERHEAD = 0.05

#: hard ceiling on relative host-time overhead of
#: ``log_level="debug"`` over the whole sweep, mirroring the selfprof
#: gate: the event log is pure host bookkeeping (a run without it calls
#: the do-nothing null log), so simulated results are bitwise identical
#: and host cost stays in the noise
MAX_LOGGING_OVERHEAD = 0.05

#: measurement attempts before the overhead gate gives up; a clean host
#: passes on the first, a noisy one on a retry, a real regression never
MAX_OVERHEAD_ATTEMPTS = 3

#: adjacent (plain, observed) pairs per workload and attempt
OVERHEAD_PAIRS = 15


def saved_obs_overhead():
    """The committed ``BENCH_obs_overhead.json`` (empty if absent): the
    sampler sweep and the logging gate each rewrite only their own part
    of it."""
    path = RESULTS_DIR / "BENCH_obs_overhead.json"
    return json.loads(path.read_text()) if path.exists() else {}


def build_sweep():
    entries = {}
    for spec in DEFAULT_WORKLOADS:
        sampled = _run_workload(spec)
        bare = _run_workload(spec, sample_interval=None)
        extra = sampled.engine_events - bare.engine_events
        overhead = extra / bare.engine_events if bare.engine_events else 0.0
        entries[spec.name] = {
            "spec": dataclasses.asdict(spec),
            "engine_events_sampled": sampled.engine_events,
            "engine_events_unsampled": bare.engine_events,
            "event_overhead": overhead,
            "sampler_samples": sampled.sampler_samples,
            "series": len(list(sampled.trace.sampler.bank)),
            "makespan_s": sampled.makespan,
            "makespan_identical": sampled.makespan == bare.makespan,
            "alerts_fired": len(sampled.alerts),
        }
    return {
        "schema_version": 2,
        "benchmark": "obs_overhead",
        "max_event_overhead": MAX_EVENT_OVERHEAD,
        "workloads": entries,
    }


def add_sampler_host_share(payload):
    """Add the sampler's calibrated host share to each workload entry
    and, weighted by calibrated sampled time, to the whole sweep.

    The share is one minus the median pair ratio of unsampled over
    sampled calibrated time (:func:`paired_overhead`).  It is reported,
    not gated: at a shared host's noise a timed bound would pass or
    fail by chance near its value.
    """
    entries = payload["workloads"]
    for spec in DEFAULT_WORKLOADS:
        _, _, timing = paired_overhead(spec, sample_interval=None)
        entries[spec.name].update(
            sampler_host_share=1.0 - timing["ratio"],
            cal_s_sampled=timing["cal_s_plain"],
            cal_s_unsampled=timing["cal_s_observed"],
        )
    total = sum(e["cal_s_sampled"] for e in entries.values())
    payload["pairs"] = OVERHEAD_PAIRS
    payload["sampler_host_share_total"] = sum(
        e["sampler_host_share"] * e["cal_s_sampled"] / total
        for e in entries.values()
    )


def sweep_table(payload):
    rows = [
        [
            name,
            str(entry["engine_events_unsampled"]),
            str(entry["engine_events_sampled"]),
            f"{entry['event_overhead']:+.2%}",
            str(entry["sampler_samples"]),
            "yes" if entry["makespan_identical"] else "NO",
            f"{entry['sampler_host_share']:+.1%}",
        ]
        for name, entry in payload["workloads"].items()
    ]
    return format_table(
        ["workload", "events (off)", "events (on)", "overhead",
         "samples", "makespan identical", "host share"],
        rows,
        title=("Sampler overhead: engine events with sampling on vs off, "
               "calibrated host share of the sampler (sweep "
               f"{payload['sampler_host_share_total']:+.1%})"),
    )


@pytest.mark.benchmark(group="obs-overhead")
def test_sampler_overhead(benchmark):
    payload = once(benchmark, build_sweep)
    add_sampler_host_share(payload)
    save_table("obs_overhead", sweep_table(payload))
    # keep the logging gate's block that rides in the same file
    logging = saved_obs_overhead().get("logging")
    if logging is not None:
        payload["logging"] = logging
    save_json("obs_overhead", payload)

    assert set(payload["workloads"]) == {w.name for w in DEFAULT_WORKLOADS}
    for name, entry in payload["workloads"].items():
        assert entry["event_overhead"] < MAX_EVENT_OVERHEAD, (
            name, entry["event_overhead"])
        # The tick-driven design makes the overhead exactly zero today;
        # pin that so an accidental engine dependency is caught even
        # inside the 3% envelope.
        assert entry["engine_events_sampled"] == entry[
            "engine_events_unsampled"], name
        assert entry["makespan_identical"], name
        assert entry["sampler_samples"] > 100, (name, "vacuous sweep?")


def _canon_output(output):
    """Bitwise-comparable form of a reduce-output dict (ndarray-safe)."""
    return {
        str(k): v.tobytes() if hasattr(v, "tobytes") else repr(v)
        for k, v in output.items()
    }


def _timed(runner):
    """One run in calibrated seconds, as ``benchmarks/e2e`` times an op:
    collect the previous run's garbage untimed, then probe, run, probe."""
    gc.collect()
    before = probe()
    t0 = perf_counter()
    out = runner()
    raw = perf_counter() - t0
    return out, raw, calibrated(raw, before, probe())


def paired_overhead(spec, **observed):
    """Median calibrated-time ratio of *observed* over plain runs of *spec*.

    One untimed warm-up per side, then ``OVERHEAD_PAIRS`` adjacent
    (plain, observed) pairs, the order flipped on every pair.  Returns
    the last plain and observed results, the median ratio, and the
    median calibrated and raw seconds of each side.
    """
    kwargs = {"plain": {}, "observed": observed}
    for kw in kwargs.values():
        _run_workload(spec, **kw)
    last = {}
    times: dict[str, list[tuple[float, float]]] = {"plain": [], "observed": []}
    ratios: list[float] = []
    for i in range(OVERHEAD_PAIRS):
        for side in ("plain", "observed")[:: 1 if i % 2 == 0 else -1]:
            last[side], raw, cal = _timed(
                lambda: _run_workload(spec, **kwargs[side]))
            times[side].append((raw, cal))
        ratios.append(times["observed"][-1][1] / times["plain"][-1][1])
    timing = {"ratio": median(ratios)}
    for side, runs in times.items():
        timing[f"cal_s_{side}"] = median(cal for _, cal in runs)
        timing[f"wall_s_{side}"] = median(raw for raw, _ in runs)
    return last["plain"], last["observed"], timing


def overhead_sweep(label, entry_of, observed, columns=(), row_of=None):
    """Run :func:`paired_overhead` over the standard sweep.

    *entry_of(plain, obs)* adds the bitwise-identity fields of one
    workload's entry; *columns*/*row_of* add table columns.  The sweep
    overhead is the mean of the per-workload median ratios weighted by
    each workload's calibrated plain time, so a long workload's overhead
    counts for more than a 30 ms one's.
    """
    entries = {}
    rows = []
    for spec in DEFAULT_WORKLOADS:
        plain, obs, timing = paired_overhead(spec, **observed)
        entry = {
            "spec": dataclasses.asdict(spec),
            **{k: v for k, v in timing.items() if k != "ratio"},
            "overhead": timing["ratio"] - 1.0,
            "engine_events_identical": obs.engine_events == plain.engine_events,
            "makespan_identical": obs.makespan == plain.makespan,
            "outputs_identical":
                _canon_output(obs.output) == _canon_output(plain.output),
            "sampler_samples_identical":
                obs.sampler_samples == plain.sampler_samples,
            **entry_of(plain, obs),
        }
        entries[spec.name] = entry
        rows.append([
            spec.name,
            f"{timing['cal_s_plain'] * 1e3:.1f}",
            f"{timing['cal_s_observed'] * 1e3:.1f}",
            f"{entry['overhead']:+.1%}",
            *(row_of(entry) if row_of else ()),
            "yes" if entry["engine_events_identical"]
            and entry["makespan_identical"]
            and entry["outputs_identical"] else "NO",
        ])
    total = sum(e["cal_s_plain"] for e in entries.values())
    overall = sum(
        e["overhead"] * e["cal_s_plain"] / total for e in entries.values()
    )
    table = format_table(
        ["workload", "off (ms)", "on (ms)", "overhead", *columns,
         "results identical"],
        rows,
        title=(f"{label}: calibrated host time on vs off "
               f"(sweep {overall:+.1%})"),
    )
    return table, {
        "schema_version": 2,
        "pairs": OVERHEAD_PAIRS,
        "overhead_total": overall,
        "workloads": entries,
    }


def build_selfprof_sweep():
    table, payload = overhead_sweep(
        "Self-profiler overhead",
        lambda plain, prof: {
            "plain_has_no_profile": plain.selfprofile is None,
            "hotspots": len(prof.selfprofile.top_exclusive(10))
            if prof.selfprofile else 0,
        },
        {"selfprof": True},
    )
    payload.update(benchmark="selfprof_overhead",
                   max_overhead=MAX_SELFPROF_OVERHEAD)
    return table, payload


def build_logging_sweep():
    table, payload = overhead_sweep(
        "Event-log overhead (log_level=debug)",
        lambda plain, logged: {
            "plain_has_no_log": plain.logs is None,
            "records_emitted": logged.logs.emitted if logged.logs else 0,
        },
        {"log_level": "debug"},
        columns=("records",),
        row_of=lambda entry: (str(entry["records_emitted"]),),
    )
    payload.update(benchmark="logging_overhead",
                   max_overhead=MAX_LOGGING_OVERHEAD)
    return table, payload


def _gate(build, bound):
    """Best of up to ``MAX_OVERHEAD_ATTEMPTS`` sweeps, every attempt's
    overhead recorded in the returned payload."""
    attempts: list[float] = []
    table = payload = None
    for _ in range(MAX_OVERHEAD_ATTEMPTS):
        t, p = build()
        attempts.append(p["overhead_total"])
        if payload is None or p["overhead_total"] < payload["overhead_total"]:
            table, payload = t, p
        if payload["overhead_total"] < bound:
            break
    payload["overhead_attempts"] = attempts
    return table, payload


def test_logging_overhead():
    table, payload = _gate(build_logging_sweep, MAX_LOGGING_OVERHEAD)
    save_table("logging_overhead", table)
    # The gate rides in BENCH_obs_overhead.json next to the sampler
    # sweep: both guard the same zero-perturbation contract.
    base = saved_obs_overhead() or {
        "schema_version": 2, "benchmark": "obs_overhead"}
    base["logging"] = payload
    save_json("obs_overhead", base)

    assert set(payload["workloads"]) == {w.name for w in DEFAULT_WORKLOADS}
    for name, entry in payload["workloads"].items():
        # zero perturbation: the event log is host bookkeeping behind a
        # ``log is None`` guard, so simulated results never move
        assert entry["engine_events_identical"], name
        assert entry["makespan_identical"], name
        assert entry["outputs_identical"], name
        assert entry["sampler_samples_identical"], name
        assert entry["plain_has_no_log"], name
        assert entry["records_emitted"] > 0, (name, "vacuous sweep?")
    assert payload["overhead_total"] < MAX_LOGGING_OVERHEAD, (
        payload["overhead_attempts"])


def test_selfprof_overhead():
    table, payload = _gate(build_selfprof_sweep, MAX_SELFPROF_OVERHEAD)
    save_table("selfprof_overhead", table)
    save_json("selfprof_overhead", payload)

    assert set(payload["workloads"]) == {w.name for w in DEFAULT_WORKLOADS}
    for name, entry in payload["workloads"].items():
        # zero perturbation: the profiler only watches the host clock,
        # so every simulated result is bitwise identical either way
        assert entry["engine_events_identical"], name
        assert entry["makespan_identical"], name
        assert entry["outputs_identical"], name
        assert entry["sampler_samples_identical"], name
        assert entry["plain_has_no_profile"], name
        assert entry["hotspots"] > 0, (name, "empty host profile")
    assert payload["overhead_total"] < MAX_SELFPROF_OVERHEAD, (
        payload["overhead_attempts"])
