#!/usr/bin/env python3
"""Paired end-to-end runs of a parent checkout against a change checkout.

Run from the change's repository root::

    python3 benchmarks/pair_e2e.py PARENT_DIR CHANGE_DIR --workload W [W ...]
        [--pairs 10] [--first-seed N]

Both directories must be git checkouts (make the parent with ``git
clone``, not ``git archive``): each side's commit label is its
``git rev-parse --short HEAD``.  Pair ``i`` of each workload runs
``benchmarks/e2e/run.py --workload W --seed N+i --trace 0`` once in
each checkout, at run.py's own default run length, the parent first on
even ``i`` and the change first on odd ``i``, so a drift in host speed
favours neither side.  For every workload the script prints the
docs/PROFILING.md table row: each end-to-end metric's median on both
sides, the change's wins and whether the claim rule holds for it (wins
in at least nine pairs of ten, and a median gap wider than the parent's
interquartile range), with the parent's quartiles of ``op_s.p50``.  Last it
prints the line for ``benchmarks/results/e2e_trajectory.jsonl``: the
change side's report of each workload's first pair, with the parent
commit and the pair seeds.

The metrics and which way each is better come from the change's
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

#: the metric a claim is made on, and the share of pairs it must win
CLAIM_METRIC = "op_s.p50"
CLAIM_WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(
    parent: list[float], change: list[float], better: str
) -> dict[str, Any]:
    """Paired statistics of one metric: medians, the parent's quartiles,
    the change's wins (a tie wins nothing) and the relative move."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number (>0) of parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    return {
        "pairs": len(parent),
        "parent": p_med,
        "change": c_med,
        "q1": q1,
        "q3": q3,
        "wins": wins,
        "rel": (c_med - p_med) / p_med if p_med else math.nan,
        "claim": (
            wins >= math.ceil(CLAIM_WIN_SHARE * len(parent))
            and sign * (p_med - c_med) > q3 - q1
        ),
    }


def _pct(stats: dict[str, Any]) -> str:
    return f"{stats['rel'] * 100:+.1f}%".replace("-", "−")


def table_row(workload: str, stats: dict[str, dict[str, Any]]) -> str:
    """The docs/PROFILING.md paired-table row of one workload."""
    head = stats[CLAIM_METRIC]
    cells = [
        workload,
        str(head["pairs"]),
        f"{head['parent']:.4f} ({head['q1']:.4f}–{head['q3']:.4f}) → "
        f"{head['change']:.4f} s, {_pct(head)}",
        f"{head['wins']}/{head['pairs']}" + (" (claim holds)" if head["claim"] else ""),
    ]
    for name, s in stats.items():
        if name != CLAIM_METRIC:
            cells.append(
                f"{s['parent']:.4g} → {s['change']:.4g} ({_pct(s)}), "
                f"{s['wins']}/{s['pairs']}" + (" (claim holds)" if s["claim"] else "")
            )
    return "| " + " | ".join(cells) + " |"


def table_header(names: list[str]) -> str:
    cols = ["workload", "pairs", f"`{CLAIM_METRIC}` parent (quartiles) → change",
            "wins", *(f"`{n}`" for n in names if n != CLAIM_METRIC)]
    return "| " + " | ".join(cols) + " |\n|" + "---|" * len(cols)


def trajectory_line(
    reports: dict[str, dict[str, Any]],
    seeds: dict[str, list[int]],
    commit: str,
    parent: str,
) -> str:
    """The trajectory line: the change side's report per workload (one
    ``run.py --json`` line each, merged), with the parent and seeds."""
    first = next(iter(reports.values()))
    line = {
        "commit": commit,
        "parent": parent,
        "seed": first["seed"],
        "seconds": first["seconds"],
        "host": first["host"],
        "correct": all(r["correct"] for r in reports.values()),
        "pair_seeds": {w: [s[0], s[-1]] for w, s in seeds.items()},
        "workloads": {w: r["workloads"][w] for w, r in reports.items()},
    }
    return json.dumps(line, sort_keys=True)


def commit_of(checkout: Path) -> str:
    """The short hash of the commit *checkout* has checked out; fails
    unless *checkout* is the root of a git work tree."""
    out = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "--show-toplevel",
         "--short", "HEAD"],
        capture_output=True, text=True,
    )
    lines = out.stdout.split()
    if out.returncode or Path(lines[0]).resolve() != checkout.resolve():
        raise SystemExit(f"{checkout}: not the root of a git checkout "
                         "(make the parent with git clone)")
    return lines[1]


def run_once(checkout: Path, workload: str, seed: int,
             commit: str) -> dict[str, Any]:
    """One ``run.py --trace 0`` run in *checkout*; its ``--json`` report."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.jsonl"
        subprocess.run(
            [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
             "--seed", str(seed), "--trace", "0",
             "--json", str(out), "--commit", commit],
            cwd=checkout, check=True, stdout=subprocess.DEVNULL,
        )
        return json.loads(out.read_text())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    commits = {"parent": commit_of(args.parent_dir),
               "change": commit_of(args.change_dir)}
    bench = json.loads((args.change_dir / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    rows, reports, seeds = [], {}, {}
    for workload in args.workload:
        runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
        seeds[workload] = [args.first_seed + i for i in range(args.pairs)]
        for i, seed in enumerate(seeds[workload]):
            sides = [("parent", args.parent_dir), ("change", args.change_dir)]
            for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                report = run_once(checkout, workload, seed, commits[side])
                runs[side].append(report["workloads"][workload]["metrics"])
                if side == "change" and i == 0:
                    reports[workload] = report
            print(f"# {workload} pair {i} seed {seed} done", file=sys.stderr)
        stats = {
            name: summarize([r[name] for r in runs["parent"]],
                            [r[name] for r in runs["change"]], way)
            for name, way in better.items()
        }
        rows.append(table_row(workload, stats))
    print(table_header(list(better)))
    print("\n".join(rows))
    print(trajectory_line(reports, seeds, commits["change"], commits["parent"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
