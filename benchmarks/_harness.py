"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` regenerates one table or figure from the paper's
evaluation (see DESIGN.md §4 for the index).  Benchmarks print a
paper-style table, save it under ``benchmarks/results/``, and assert the
paper's *qualitative* claims (orderings, approximate factors) — absolute
numbers come from the simulated substrate and are recorded in
EXPERIMENTS.md.

Workload sizes are scaled down from the paper where memory/time demand it;
every scaled figure states both the paper's parameters and ours.  Scaling
does not change the reported *shapes*: the simulator charges time from the
roofline models, which are linear in the data volume at fixed arithmetic
intensity.
"""

from __future__ import annotations

import json
import pathlib
from time import perf_counter

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: per-benchmark host wall-clock measurements recorded by :func:`once`
#: (keyed by the timed function's qualified name): min-of-k seconds over
#: the timed rounds, after one discarded warmup repetition.  Flushed
#: into the next :func:`save_json` payload as ``host_meta`` so saved
#: bench JSONs carry the wall-clock trajectory alongside the simulated
#: metrics.
LAST_WALL: dict[str, dict[str, float | int]] = {}

#: timed rounds for :func:`once` (min-of-k; one extra warmup round)
WALL_ROUNDS = 3

#: destination directory for saved runs (profile JSONL), set from the
#: ``--profile-out PATH`` pytest option (``None``: profiles are skipped)
PROFILE_OUT: pathlib.Path | None = None


def save_table(name: str, text: str) -> None:
    """Print a rendered table and persist it for the terminal summary."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def save_json(name: str, payload: dict) -> pathlib.Path:
    """Persist a machine-readable benchmark payload as
    ``benchmarks/results/BENCH_<name>.json``.  Stable key order so
    reruns diff cleanly.

    Wall-clock measurements accumulated by :func:`once` since the last
    save are attached under ``host_meta`` (and drained), so each bench
    JSON records the host cost of the runs it summarizes next to their
    simulated metrics.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    if LAST_WALL and "host_meta" not in payload:
        payload = dict(payload)
        payload["host_meta"] = {
            "wall_rounds": WALL_ROUNDS,
            "wall_warmup": 1,
            "wall_s": dict(sorted(LAST_WALL.items())),
        }
        LAST_WALL.clear()
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def save_profile(name: str, result) -> pathlib.Path | None:
    """Save a finished run (a ``JobResult``) as profile JSONL, the file
    ``repro analyze``, ``dashboard``, ``selfprof`` and ``logs`` read.

    No-op unless the suite ran with ``--profile-out PATH``; returns the
    written path (``<PATH>/<name>.profile.jsonl``) or ``None``.
    """
    if PROFILE_OUT is None:
        return None
    from repro.obs.profile import profile_jsonl

    PROFILE_OUT.mkdir(parents=True, exist_ok=True)
    path = PROFILE_OUT / f"{name}.profile.jsonl"
    meta = {"bench": name, "makespan_s": result.makespan,
            "policy": result.policy, "iterations": result.iterations}
    path.write_text(
        profile_jsonl(result.trace, meta, host=result.selfprofile)
    )
    return path


def measure(fn, label: str | None = None, rounds: int | None = None):
    """Warmup + min-of-k wall timing without the pytest-benchmark fixture.

    Same protocol as :func:`once` — one discarded warmup repetition,
    then *rounds* (default :data:`WALL_ROUNDS`) timed repetitions — for
    benchmarks that time many sub-cases individually and so cannot hand
    a single callable to pytest-benchmark.  Records into
    :data:`LAST_WALL` under *label* and returns
    ``(last_result, min_wall_s, walls)``.
    """
    fn()  # warmup repetition: absorb first-touch costs, then discard
    walls: list[float] = []
    out = None
    for _ in range(rounds or WALL_ROUNDS):
        t0 = perf_counter()
        out = fn()
        walls.append(perf_counter() - t0)
    key = label or getattr(fn, "__qualname__",
                           getattr(fn, "__name__", repr(fn)))
    LAST_WALL[key] = {
        "min_s": min(walls),
        "max_s": max(walls),
        "rounds": len(walls),
    }
    return out, min(walls), walls


def once(benchmark, fn, label: str | None = None):
    """Run *fn* under pytest-benchmark timing: one warmup repetition,
    then :data:`WALL_ROUNDS` timed rounds.

    Simulated *results* are deterministic across rounds, but the host
    wall-clock is not — import costs, allocator warmup, and branch
    caches all land on the first repetition.  So the warmup run is
    discarded and the min-of-k over the timed rounds is recorded in
    :data:`LAST_WALL` (keyed by *label* or the function's name), which
    the next :func:`save_json` embeds as ``host_meta`` — giving every
    saved bench JSON a comparable wall-clock trajectory.
    """
    fn()  # warmup repetition: absorb first-touch costs, then discard
    walls: list[float] = []
    result_box: list = []

    def timed():
        t0 = perf_counter()
        out = fn()
        walls.append(perf_counter() - t0)
        result_box.append(out)
        return out

    benchmark.pedantic(timed, rounds=WALL_ROUNDS, iterations=1)
    key = label or getattr(fn, "__qualname__",
                           getattr(fn, "__name__", repr(fn)))
    LAST_WALL[key] = {
        "min_s": min(walls),
        "max_s": max(walls),
        "rounds": len(walls),
    }
    return result_box[-1]
