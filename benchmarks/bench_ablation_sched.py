"""Ablation S1 — static (analytic) vs dynamic (polling) scheduling.

§III.B.2 describes both strategies and promises a comparison.  The trade
the paper describes: dynamic scheduling needs no model but "it is
non-trivial work to find out the appropriate block sizes [for both the
GPUs and CPUs]", and suffers tail imbalance when a slow CPU core grabs one
of the last coarse blocks; static scheduling has no polling artefacts but
trusts the analytic split.  We measure, on a compute-dominated C-means
configuration (dispatch costs near zero so the scheduling itself is what
differs):

* static vs a dynamic block-count sweep — the analytic split matches the
  best dynamic configuration *without tuning*;
* dynamic block-size sensitivity — coarse blocks lose to the CPU-tail
  straggler effect, exactly the paper's "non-trivial" tuning problem;
* static with a *mis-calibrated* split (forced wrong p) vs dynamic —
  dynamic adapts and wins, which is why PRS provides both strategies.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict

import pytest

from _harness import RESULTS_DIR, once, save_profile, save_table
from repro.analysis.tables import format_table
from repro.apps.cmeans import CMeansApp
from repro.apps.gmm import GMMApp
from repro.data.synth import gaussian_mixture
from repro.hardware import delta_cluster
from repro.runtime.job import JobConfig, Overheads, Scheduling
from repro.runtime.policies import available_policies
from repro.runtime.prs import PRSRuntime

POINTS, DIMS, M = 200_000, 32, 100
ITERS = 2
#: near-zero fixed costs: isolate the scheduling decision itself
LEAN = Overheads(
    job_setup_s=0.0,
    cpu_task_dispatch_s=5e-5,
    gpu_task_dispatch_s=5e-5,
    iteration_s=0.0,
)


def run_job(scheduling, force_p=None, dynamic_blocks=64):
    pts, _, _ = gaussian_mixture(POINTS, DIMS, M, seed=7)
    app = CMeansApp(pts, M, seed=8, max_iterations=ITERS, epsilon=1e-12)
    config = JobConfig(
        scheduling=scheduling,
        force_cpu_fraction=force_p,
        dynamic_blocks=dynamic_blocks,
        overheads=LEAN,
    )
    return PRSRuntime(delta_cluster(4), config).run(app)


def run(scheduling, force_p=None, dynamic_blocks=64):
    return run_job(scheduling, force_p, dynamic_blocks).makespan


def build_table():
    static_good = run(Scheduling.STATIC)
    static_bad = run(Scheduling.STATIC, force_p=0.6)  # grossly wrong split
    block_sweep = {
        n: run(Scheduling.DYNAMIC, dynamic_blocks=n)
        for n in (8, 32, 128, 512)
    }

    rows = [
        ["static, analytic p (eq 8)", f"{static_good * 1e3:.2f} ms"],
        ["static, forced p=0.60", f"{static_bad * 1e3:.2f} ms"],
    ] + [
        [f"dynamic, {n} blocks", f"{t * 1e3:.2f} ms"]
        for n, t in block_sweep.items()
    ]
    table = format_table(
        ["configuration", "makespan"],
        rows,
        title=(
            "Ablation S1: static vs dynamic sub-task scheduling "
            f"(C-means, {POINTS} pts, M={M}, 4 Delta nodes, lean overheads)"
        ),
    )
    return table, (static_good, static_bad, block_sweep)


@pytest.mark.benchmark(group="ablation-sched")
def test_ablation_scheduling(benchmark):
    table, (static_good, static_bad, sweep) = once(benchmark, build_table)
    save_table("ablation_sched", table)

    best_dynamic = min(sweep.values())
    worst_dynamic = max(sweep.values())
    # The analytic split matches the best *tuned* dynamic configuration.
    assert static_good <= best_dynamic * 1.10
    # Dynamic block size genuinely matters (the paper's tuning problem).
    assert worst_dynamic > best_dynamic * 1.15
    # A mis-calibrated static split is far worse than either strategy;
    # dynamic absorbs model error.
    assert static_bad > static_good * 2.0
    assert best_dynamic < static_bad


# ---------------------------------------------------------------------------
# Policy sweep: every registered scheduling policy on the same workload
# ---------------------------------------------------------------------------


def build_policy_sweep():
    results = {}
    for name in available_policies():
        job = run_job(name, dynamic_blocks=None)  # None: MinBs-derived count
        save_profile(f"sched_policy_{name}", job)
        results[name] = {
            "makespan_s": job.makespan,
            "gflops": job.gflops,
            "iterations": job.iterations,
            "final_cpu_fractions": job.final_cpu_fractions,
            "phase_totals_s": job.phase_totals(),
        }

    rows = [
        [
            name,
            f"{stats['makespan_s'] * 1e3:.2f} ms",
            f"{stats['gflops']:.1f}",
            f"{stats['phase_totals_s'].get('map', 0.0) * 1e3:.2f} ms",
        ]
        for name, stats in sorted(results.items())
    ]
    table = format_table(
        ["policy", "makespan", "GFLOP/s", "map time"],
        rows,
        title=(
            "Ablation S1b: registered scheduling policies "
            f"(C-means, {POINTS} pts, M={M}, 4 Delta nodes, lean overheads)"
        ),
    )
    return table, results


# ---------------------------------------------------------------------------
# Cross-device traffic: the graph-partition cut vs polling (gmm-multirank)
# ---------------------------------------------------------------------------

#: sized like the "gmm-multirank" workload of ``repro.cli.DEFAULT_WORKLOADS``
#: (1,500 points on 4 ranks for 4 iterations)
GMM_POINTS, GMM_DIMS, GMM_K = 1500, 8, 3
GMM_NODES, GMM_ITERS = 4, 4
GMM_BYTES_PER_ITEM = GMM_DIMS * 8  # float64 feature rows

_MAP_LABEL = re.compile(r"map\[(\d+):(\d+)\]$")


def run_gmm(policy):
    pts, _, _ = gaussian_mixture(GMM_POINTS, GMM_DIMS, GMM_K, seed=7)
    app = GMMApp(pts, GMM_K, seed=7, max_iterations=GMM_ITERS)
    config = JobConfig(scheduling=policy, overheads=LEAN, dynamic_blocks=64)
    return PRSRuntime(delta_cluster(GMM_NODES), config).run(app)


def cross_device_cut_bytes(trace, bytes_per_item):
    """Bytes on block-graph edges whose endpoints ran on different devices.

    Reconstructs each node's per-iteration block -> device assignment from
    the map compute records (the k-th occurrence of a block label is
    iteration k) and sums, over adjacent item-range pairs placed on
    different devices, the smaller block's volume — exactly the edge
    weight the graph-partition policy min-cuts, measured after the fact
    for *any* policy.
    """
    per_node: dict[str, dict[tuple[int, int], list[str]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for rec in sorted(trace.records, key=lambda r: r.start):
        match = _MAP_LABEL.match(rec.label or "")
        if match and rec.kind == "compute":
            node = rec.device.split(".")[0]
            span = (int(match[1]), int(match[2]))
            per_node[node][span].append(rec.device)
    total = 0.0
    for blocks in per_node.values():
        n_iters = max(len(devices) for devices in blocks.values())
        ordered = sorted(blocks)
        for it in range(n_iters):
            for a, b in zip(ordered, ordered[1:]):
                if a[1] != b[0]:  # not adjacent: no shared edge
                    continue
                dev_a = blocks[a][min(it, len(blocks[a]) - 1)]
                dev_b = blocks[b][min(it, len(blocks[b]) - 1)]
                if dev_a != dev_b:
                    total += min(a[1] - a[0], b[1] - b[0]) * bytes_per_item
    return total


def build_traffic_sweep():
    results = {}
    for name in available_policies():
        job = run_gmm(name)
        results[name] = {
            "makespan_s": job.makespan,
            "cut_bytes": cross_device_cut_bytes(job.trace, GMM_BYTES_PER_ITEM),
            "h2d_bytes": job.trace.total_bytes(kind="h2d"),
        }
    rows = [
        [
            name,
            f"{stats['makespan_s'] * 1e3:.3f} ms",
            f"{stats['cut_bytes'] / 1024:.0f} KiB",
            f"{stats['h2d_bytes'] / 1024:.0f} KiB",
        ]
        for name, stats in sorted(results.items())
    ]
    table = format_table(
        ["policy", "makespan", "cross-device edge bytes", "h2d staged"],
        rows,
        title=(
            "Ablation S1c: cross-device traffic per policy "
            f"(GMM, {GMM_POINTS} pts, {GMM_NODES} Delta nodes, "
            f"{GMM_ITERS} iterations)"
        ),
    )
    return table, results


@pytest.mark.benchmark(group="ablation-sched")
def test_policy_sweep(benchmark):
    table, results = once(benchmark, build_policy_sweep)
    save_table("ablation_sched_policies", table)

    traffic_table, traffic = build_traffic_sweep()
    save_table("ablation_sched_traffic", traffic_table)

    payload = {
        "workload": {
            "app": "cmeans",
            "points": POINTS,
            "dims": DIMS,
            "clusters": M,
            "iterations": ITERS,
            "cluster": "delta x4",
        },
        "policies": results,
        "gmm_multirank": {
            "workload": {
                "app": "gmm",
                "points": GMM_POINTS,
                "dims": GMM_DIMS,
                "clusters": GMM_K,
                "iterations": GMM_ITERS,
                "cluster": f"delta x{GMM_NODES}",
            },
            "policies": traffic,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sched_policies.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    # Every registered policy must complete the job.
    assert set(results) >= {
        "static",
        "dynamic",
        "adaptive-feedback",
        "locality-dynamic",
        "affinity",
        "graph-partition",
    }
    # The min-cut policy moves fewer cross-device bytes than polling on
    # the gmm-multirank workload — the property it exists to optimise.
    assert (
        traffic["graph-partition"]["cut_bytes"]
        < traffic["dynamic"]["cut_bytes"]
    )
    for stats in results.values():
        assert stats["makespan_s"] > 0.0
        assert stats["iterations"] == ITERS
    # Phase sums reproduce each policy's makespan (the pipeline's
    # bookkeeping invariant) within 1%.
    for stats in results.values():
        total = sum(stats["phase_totals_s"].values())
        assert abs(total - stats["makespan_s"]) <= 0.01 * stats["makespan_s"]
    # No policy should be catastrophically worse than the analytic split
    # on well-modelled hardware.
    static_t = results["static"]["makespan_s"]
    for name, stats in results.items():
        assert stats["makespan_s"] < 3.0 * static_t, name
