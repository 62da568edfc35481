"""Command-line interface: ``python -m repro <command>``.

The subcommands expose the library without writing code:

``advise``
    Print the analytic scheduling plan (Equations 8-11) for an application
    on a hardware preset — the paper's "automatic scheduling plan" output.

``roofline``
    Print roofline samples and ridge points for a preset node's devices
    (Figure 3 as text).

``run``
    Run one of the built-in applications on a simulated preset cluster and
    print the job summary (split, makespan, throughput, per-device
    utilization, per-phase time breakdown).  ``--profile`` additionally
    saves the run as profile JSONL and prints the observed-vs-predicted
    reconciliation.

``metrics``
    Run an application and print the job's metrics registry in the
    Prometheus text exposition format.

``trace export``
    Run an application and export its span hierarchy as Chrome
    trace-event JSON (for Perfetto; nothing reads it back) or as a
    profile JSONL (the saved-run format: spans plus sampled series, host
    profile and event log); ``--check`` gates the export on the profile
    self-consistency checks.

``analyze``, ``dashboard``, ``selfprof``, ``logs``
    Read a saved run.  Each opens its file with
    :func:`repro.obs.profile.load_profile` and exits with one line naming
    the file and the formats it accepts when the file does not load.

``policies``
    List the registered sub-task scheduling policies (selectable with
    ``run --policy``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.analysis.tables import format_table
from repro.core.analytic import workload_split
from repro.core.granularity import (
    min_block_size,
    overlap_percentage,
    should_use_streams,
)
from repro.core.intensity import (
    ConstantIntensity,
    IntensityProfile,
    cmeans_intensity,
    dgemm_intensity,
    gemv_intensity,
    gmm_intensity,
    kmeans_intensity,
    wordcount_intensity,
)
from repro.core.roofline import RooflineModel
from repro.hardware import (
    bigred2_cluster,
    bigred2_node,
    delta_cluster,
    delta_node,
    mic_node,
)
from repro.hardware.cluster import Cluster, NetworkSpec
from repro.hardware.node import FatNode

NODE_PRESETS: dict[str, Callable[[], FatNode]] = {
    "delta": lambda: delta_node(n_gpus=1),
    "bigred2": bigred2_node,
    "mic": mic_node,
}


def _cluster_for(preset: str, n_nodes: int) -> Cluster:
    if preset == "delta":
        return delta_cluster(n_nodes=n_nodes)
    if preset == "bigred2":
        return bigred2_cluster(n_nodes=n_nodes)
    nodes = tuple(
        FatNode(name=f"{preset}{i:02d}", cpu=NODE_PRESETS[preset]().cpu,
                gpus=NODE_PRESETS[preset]().gpus)
        for i in range(n_nodes)
    )
    return Cluster(name=preset, nodes=nodes,
                   network=NetworkSpec(latency=2e-6, bandwidth=3.2))


def _app_intensity(name: str, custom: float | None) -> tuple[str, IntensityProfile, bool]:
    """(label, profile, resident) for a named application."""
    if custom is not None:
        return (f"custom(A={custom})", ConstantIntensity(custom), False)
    table = {
        "wordcount": (wordcount_intensity(), False),
        "gemv": (gemv_intensity(), False),
        "kmeans": (kmeans_intensity(10), True),
        "cmeans": (cmeans_intensity(100), True),
        "gmm": (gmm_intensity(10, 60), True),
        "dgemm": (dgemm_intensity(), False),
    }
    if name not in table:
        raise SystemExit(
            f"unknown app {name!r}; choose from {sorted(table)} or pass "
            "--intensity"
        )
    profile, resident = table[name]
    return name, profile, resident


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_advise(args: argparse.Namespace) -> int:
    node = NODE_PRESETS[args.node]()
    label, profile, resident = _app_intensity(args.app, args.intensity)
    if args.resident:
        resident = True
    staged = not resident

    decision = workload_split(
        node, profile, staged=staged, partition_bytes=args.partition_bytes
    )
    gpu_bytes = args.partition_bytes * decision.gpu_fraction
    op = overlap_percentage(node.gpu, profile, max(gpu_bytes, 1.0))
    streams = should_use_streams(node.gpu, profile, max(gpu_bytes, 1.0))
    try:
        minbs = f"{min_block_size(node.gpu, profile):.3e} B"
    except ValueError:
        minbs = "unreachable (bandwidth-bound at every size)"

    print(f"scheduling plan: {label} on one {node.name} node")
    print(f"  arithmetic intensity : {profile.at(args.partition_bytes):.4g} flops/B")
    print(f"  data placement       : {'resident in GPU memory' if resident else 'staged via PCI-E'}")
    print(f"  regime (eq 8)        : {decision.regime.value}")
    print(f"  CPU share p          : {decision.p:.1%}")
    print(f"  GPU share 1-p        : {decision.gpu_fraction:.1%}")
    print(f"  attainable F_c / F_g : {decision.cpu_rate:.1f} / {decision.gpu_rate:.1f} GFLOP/s")
    print(f"  overlap op (eq 9)    : {op:.2f}")
    print(f"  launch CUDA streams  : {'yes' if streams else 'no'}")
    print(f"  MinBs (eq 11)        : {minbs}")
    return 0


def cmd_roofline(args: argparse.Namespace) -> int:
    node = NODE_PRESETS[args.node]()
    models = [
        ("CPU", RooflineModel(node.cpu)),
        ("GPU staged", RooflineModel(node.gpu, staged=True)),
        ("GPU resident", RooflineModel(node.gpu, staged=False)),
    ]
    rows = []
    for ai_exp in range(-2, 13, 2):
        ai = 2.0**ai_exp
        rows.append([f"{ai:g}"] + [f"{m.attainable(ai):.2f}" for _, m in models])
    print(
        format_table(
            ["A (flops/B)"] + [name for name, _ in models],
            rows,
            title=f"roofline of one {node.name} node (GFLOP/s)",
        )
    )
    ridge_rows = [
        [name, f"{m.peak:.0f}", f"{m.bandwidth:.2f}", f"{m.ridge:.2f}"]
        for name, m in models
    ]
    print()
    print(format_table(["device", "peak", "B_eff GB/s", "ridge A"], ridge_rows))
    return 0


def cmd_claims(args: argparse.Namespace) -> int:
    from repro.claims import claims_table

    print(claims_table())
    return 0


def cmd_policies(args: argparse.Namespace) -> int:
    from repro.runtime.policies import available_policies, get_policy

    print("registered scheduling policies:")
    for name in available_policies():
        cls = get_policy(name)
        doc = (cls.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"  {name:<18s} {summary}")
    return 0


def _run_job(args: argparse.Namespace):
    """Build the cluster/app/config from shared run options and execute."""
    from repro.obs.timeseries import DEFAULT_SAMPLE_INTERVAL
    from repro.runtime.job import JobConfig
    from repro.runtime.prs import PRSRuntime

    cluster = _cluster_for(args.node, args.nodes)
    app = _build_app(args)
    fault_seed = args.fault_seed if args.fault_seed is not None else args.seed
    if args.no_sample:
        sample_interval = None
    elif args.sample_interval is not None:
        sample_interval = args.sample_interval
    else:
        sample_interval = DEFAULT_SAMPLE_INTERVAL
    selfprof = bool(args.selfprof or getattr(args, "self_host", False))
    config = JobConfig(
        scheduling=args.policy,
        use_cpu=not args.gpu_only,
        use_gpu=not args.cpu_only,
        faults=args.faults or None,
        fault_seed=fault_seed,
        sample_interval=sample_interval,
        initial_nodes=args.initial_nodes,
        autoscale=_parse_autoscale(args.autoscale),
        selfprof=selfprof,
        log_level=getattr(args, "log_level", None),
    )
    result = PRSRuntime(cluster, config).run(app)
    return cluster, app, config, result


_AUTOSCALE_INT_KNOBS = frozenset(
    {"min_nodes", "max_nodes", "warmup_iterations"}
)


def _parse_autoscale(values: list[str] | None):
    """``["min_nodes=2", "max_nodes=6"]`` -> knob dict (``True`` for a
    bare ``--autoscale``, ``None`` when the flag was absent)."""
    if values is None:
        return None
    knobs: dict[str, float | int] = {}
    for item in values:
        if not item:
            continue
        if "=" not in item:
            raise SystemExit(
                f"--autoscale expects KEY=VAL, got {item!r} "
                "(see docs/FAULTS.md)"
            )
        key, raw = item.split("=", 1)
        key = key.strip()
        try:
            knobs[key] = (
                int(raw) if key in _AUTOSCALE_INT_KNOBS else float(raw)
            )
        except ValueError:
            raise SystemExit(
                f"--autoscale {key}: malformed number {raw!r}"
            ) from None
    return knobs if knobs else True


#: where `run --profile` points the reader of the file it wrote
PROFILE_READERS = "profile JSONL; read it with `repro analyze` or `dashboard`"


def _profile_text(args, cluster, app, config, result) -> str:
    """The run saved as profile JSONL: meta, spans, series, and the host
    profile and event log lines when those were on.  ``run --profile-out``
    and ``trace export --format profile`` both write this text.  The meta
    is deterministic by construction — no wall-clock timestamps, no
    absolute paths — so identical runs produce byte-identical profiles
    (and dashboards)."""
    from repro.obs.profile import profile_jsonl

    meta = {
        "app": app.name,
        "n_items": app.n_items(),
        "cluster": args.node,
        "nodes": cluster.n_nodes,
        "devices": config.devices_label(),
        "policy": result.policy,
        "iterations": result.iterations,
        "makespan_s": result.makespan,
        "sample_interval": config.sample_interval,
        # Deterministic simulated-work measure (identical across reruns
        # of the same config); the host wall-clock numbers live in the
        # opt-in host_profile line, never in the meta header.
        "engine_events": result.engine_events,
    }
    return profile_jsonl(result.trace, meta, host=result.selfprofile)


def cmd_run(args: argparse.Namespace) -> int:
    cluster, app, config, result = _run_job(args)

    profile_path: str | None = None
    dashboard_path: str | None = None
    save = args.profile or args.profile_out is not None
    if save or args.dashboard_out is not None:
        text = _profile_text(args, cluster, app, config, result)
    if save:
        profile_path = args.profile_out or f"{app.name}.profile.jsonl"
        with open(profile_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.dashboard_out is not None:
        from repro.obs.dashboard import render_dashboard
        from repro.obs.profile import loads_profile

        # Render through the serialized profile (not the live objects) so
        # `run --dashboard-out` and `repro dashboard <saved-profile>` are
        # byte-identical by construction.
        page = render_dashboard(loads_profile(text))
        dashboard_path = args.dashboard_out
        with open(dashboard_path, "w", encoding="utf-8") as fh:
            fh.write(page)

    if args.json:
        import json

        payload = {
            "app": app.name,
            "n_items": app.n_items(),
            "cluster": {"preset": args.node, "nodes": cluster.n_nodes},
            "devices": config.devices_label(),
            "policy": result.policy,
            "iterations": result.iterations,
            "makespan_s": result.makespan,
            "phase_breakdown": {
                str(it): phases
                for it, phases in result.phase_breakdown().items()
            },
            "final_cpu_fractions": result.final_cpu_fractions,
            "gflops": result.gflops,
            "gflops_per_node": result.gflops_per_node(cluster.n_nodes),
            "network_bytes": result.network_bytes,
            "splits": [
                {"p": s.p, "regime": s.regime.value} for s in result.splits
            ],
            "device_summary": result.trace.summary(),
            "analysis": result.analyze().to_dict(),
            "alerts": [alert.to_dict() for alert in result.alerts],
            "sampling": {
                "interval_s": config.sample_interval,
                "samples": result.sampler_samples,
                "engine_events": result.engine_events,
            },
        }
        if result.recovery is not None:
            payload["recovery"] = result.recovery.to_dict()
        if result.logs is not None:
            log = result.logs
            payload["logs"] = {
                "level": log.level,
                "records": len(log),
                "emitted": log.emitted,
                "dumps": [d.to_dict() for d in log.dumps],
            }
        if result.selfprofile is not None:
            host = result.selfprofile
            payload["host"] = {
                "wall_s": host.wall_s,
                "sim_per_wall": host.sim_per_wall,
                "events_per_sec": host.events_per_sec,
                "sections": host.section_shares(),
                "top_exclusive": host.top_exclusive(10),
            }
        if profile_path is not None:
            payload["profile"] = profile_path
        if dashboard_path is not None:
            payload["dashboard"] = dashboard_path
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if args.report:
        from repro.analysis.report import render_report, render_selfprof

        print(render_report(result, cluster, gantt=True))
        if result.selfprofile is not None:
            print()
            print(render_selfprof(result.selfprofile))
        if profile_path is not None:
            print(f"\nprofile written: {profile_path} ({PROFILE_READERS})")
        if dashboard_path is not None:
            print(f"dashboard written: {dashboard_path}")
        return 0

    print(f"app            : {app.name} ({app.n_items()} items)")
    print(f"cluster        : {cluster.n_nodes}x {args.node}")
    print(f"devices        : {config.devices_label()}")
    print(f"policy         : {result.policy}")
    if result.splits:
        split = result.splits[0]
        print(f"split (eq 8)   : CPU {split.p:.1%} [{split.regime.value}]")
    final_ps = [p for p in result.final_cpu_fractions if p is not None]
    if final_ps:
        print(f"final CPU p    : {final_ps[0]:.1%} (policy-effective)")
    print(f"iterations     : {result.iterations}")
    print(f"makespan       : {result.makespan * 1e3:.3f} ms (simulated)")
    print(f"throughput     : {result.gflops:.2f} GFLOP/s "
          f"({result.gflops_per_node(cluster.n_nodes):.2f}/node)")
    print(f"network        : {result.network_bytes / 1e6:.3f} MB shuffled")
    if result.recovery is not None:
        rec = result.recovery
        status = "clean (no fault fired)" if rec.clean else "recovered"
        print(f"faults         : {rec.faults_injected} injected; {status}")
        if not rec.clean:
            print(f"  block failures : {rec.block_failures} "
                  f"({rec.blocks_retried} blocks retried)")
            print(f"  blacklisted    : {rec.devices_blacklisted} devices, "
                  f"{rec.split_refits} split refits")
            print(f"  rank restarts  : {rec.rank_restarts} "
                  f"(dead nodes: {list(rec.dead_nodes) or 'none'}, "
                  f"{rec.checkpoints} checkpoints)")
        if len(rec.epochs) > 1:
            walk = " -> ".join(str(len(e.members)) for e in rec.epochs)
            print(f"  membership     : {len(rec.epochs) - 1} transitions "
                  f"({rec.joins} joins, {rec.drains} drains, "
                  f"{rec.autoscale_decisions} autoscale); ranks {walk}")
    if result.logs is not None:
        log = result.logs
        print(f"event log      : {len(log)} records retained "
              f"({log.emitted} emitted, level {log.level}); "
              f"{len(log.dumps)} flight dump(s)")
    totals = result.phase_totals()
    if totals:
        print("phase breakdown (rank 0, summed over iterations):")
        for phase, seconds in totals.items():
            share = seconds / result.makespan if result.makespan > 0 else 0.0
            print(f"  {phase:<12s} : {seconds * 1e3:9.3f} ms  ({share:.0%})")
    if result.selfprofile is not None:
        from repro.analysis.report import render_selfprof

        print()
        print(render_selfprof(result.selfprofile))
    if profile_path is not None:
        from repro.analysis.report import render_profile_summary

        print()
        print(render_profile_summary(result))
        print(f"profile written: {profile_path} ({PROFILE_READERS})")
    if result.alerts:
        print("alerts fired:")
        for alert in result.alerts:
            labels = dict(alert.labels)
            suffix = f" {labels}" if labels else ""
            print(f"  [{alert.severity}] {alert.rule}{suffix}: "
                  f"{alert.expr} {alert.peak:.3g} vs {alert.threshold:.3g} "
                  f"from {alert.start * 1e3:.3f} ms")
    if dashboard_path is not None:
        print(f"dashboard written: {dashboard_path}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    _, _, _, result = _run_job(args)
    if args.format == "json":
        import json

        # Self-describing snapshot (HELP/TYPE metadata alongside the
        # samples), mirroring the text exposition's comment lines.
        print(json.dumps(result.trace.metrics.to_typed_dict(), indent=2,
                         sort_keys=True))
    else:
        sys.stdout.write(result.trace.metrics.render())
    return 0


#: the saved runs each reader accepts, named in its error line
SPAN_FORMATS = (
    "a *.profile.jsonl (run --profile-out or trace export --format profile)"
)
SELFPROF_FORMATS = "a *.profile.jsonl of a --selfprof run"
LOG_FORMATS = "a *.profile.jsonl of a --log-level run"


def _saved_run_paths(paths: list[str]) -> list[str]:
    """Expand saved-run arguments: a directory becomes its
    ``*.profile.jsonl`` files, sorted."""
    import pathlib

    out: list[str] = []
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_dir():
            found = sorted(str(f) for f in p.glob("*.profile.jsonl"))
            if not found:
                raise SystemExit(f"no *.profile.jsonl profiles under {raw!r}")
            out.extend(found)
        elif p.exists():
            out.append(str(p))
        else:
            raise SystemExit(f"profile not found: {raw!r}")
    return out


def _load_saved_run(path: str, accepts: str, spans: bool = True):
    """Open a saved run with :func:`repro.obs.profile.load_profile`.

    Exits with one line naming *path* and the formats the reader
    *accepts* when the file does not load or, with *spans*, holds no
    span.
    """
    from repro.obs.profile import load_profile

    try:
        profile = load_profile(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(
            f"{path}: not a saved run ({exc}); expected {accepts}"
        ) from None
    if spans and not len(profile.tracer):
        raise SystemExit(f"{path}: holds no span; expected {accepts}")
    return profile


def cmd_analyze(args: argparse.Namespace) -> int:
    """Post-run trace analytics: live run or saved run(s)."""
    import json

    from repro.analysis.report import render_analysis, render_selfprof
    from repro.obs.analyze import analyze_tracer
    from repro.obs.log import unpaired_errors

    # (label, analysis, tracer, event log, host self-profile) per run
    runs: list[tuple[str, Any, Any, Any, Any]] = []
    if args.profiles:
        for path in _saved_run_paths(args.profiles):
            profile = _load_saved_run(path, SPAN_FORMATS)
            host = profile.host if args.self_host else None
            if args.self_host and host is None:
                print(f"analyze --self: {path} carries no host self-profile "
                      "(save it from a --selfprof run)", file=sys.stderr)
            analysis = analyze_tracer(profile.tracer, top_stragglers=args.top)
            runs.append((path, analysis, profile.tracer, profile.log, host))
    else:
        _, app, _, result = _run_job(args)
        analysis = result.analyze(top_stragglers=args.top)
        runs.append((app.name, analysis, result.trace.tracer, result.logs,
                     result.selfprofile))

    problems: list[str] = []
    logged = False
    for label, analysis, tracer, log, _ in runs:
        for problem in analysis.check():
            problems.append(f"{label}: {problem}")
        if log is None:
            continue
        # Log/span cross-validation: every ERROR record must pair with a
        # recovery or alert span (the flight recorder narrates failures
        # the recovery layer then acts on — an unpaired ERROR means a
        # failure nothing handled).
        logged = True
        for record in unpaired_errors(log, tracer):
            problems.append(
                f"{label}: ERROR log record seq={record.seq} "
                f"({record.logger}: {record.message!r} at t={record.t:.6g}) "
                "pairs with no recovery/alert span"
            )

    if args.json or args.out is not None:
        payload = {}
        for label, analysis, _, _, host in runs:
            payload[label] = analysis.to_dict()
            if host is not None:
                payload[label]["host"] = {
                    "wall_s": host.wall_s,
                    "sim_per_wall": host.sim_per_wall,
                    "events_per_sec": host.events_per_sec,
                    "sections": host.section_shares(),
                    "top_exclusive": host.top_exclusive(args.top),
                }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.out is not None and args.out != "-":
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"wrote analysis of {len(runs)} run(s) to {args.out}")
        else:
            print(text)
    if not args.json:
        for label, analysis, _, _, host in runs:
            print(f"=== {label}")
            print(render_analysis(analysis, comm=args.comm))
            if host is not None:
                print(render_selfprof(host))
            print()

    if args.check and problems:
        for problem in problems:
            print(f"analysis check FAILED: {problem}", file=sys.stderr)
        return 1
    if args.check:
        print("analysis check passed: critical path + slack tiles the "
              "makespan, slack decomposition sums, message spans pair 1:1"
              + (", ERROR log records pair with recovery/alert spans"
                 if logged else ""))
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Render saved profile(s) into standalone HTML dashboards."""
    from repro.obs.dashboard import render_dashboard

    paths = _saved_run_paths(args.profiles)
    if args.out is not None and len(paths) > 1:
        raise SystemExit("--out needs exactly one input profile")
    for path in paths:
        page = render_dashboard(_load_saved_run(path, SPAN_FORMATS))
        if args.out == "-":
            sys.stdout.write(page)
            continue
        out = args.out
        if out is None:
            base = path
            for suffix in (".profile.jsonl", ".jsonl"):
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
                    break
            out = base + ".dashboard.html"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(page)
        print(f"dashboard written: {out}")
    return 0


def cmd_selfprof(args: argparse.Namespace) -> int:
    """Report a saved host self-profile (hotspots, shares, throughput)."""
    import json

    from repro.analysis.report import render_selfprof

    host = _load_saved_run(args.file, SELFPROF_FORMATS, spans=False).host
    if host is None:
        raise SystemExit(
            f"{args.file}: no host self-profile found — produce one with "
            "`repro run --selfprof --profile-out PATH`"
        )

    if args.speedscope is not None:
        with open(args.speedscope, "w", encoding="utf-8") as fh:
            fh.write(host.to_speedscope() + "\n")
        print(f"speedscope profile written: {args.speedscope} "
              "(open at https://speedscope.app)")
    if args.collapsed is not None:
        with open(args.collapsed, "w", encoding="utf-8") as fh:
            fh.write(host.to_collapsed())
        print(f"collapsed stacks written: {args.collapsed} "
              "(render with flamegraph.pl)")

    if args.json:
        print(json.dumps({
            "wall_s": host.wall_s,
            "makespan_s": host.makespan_s,
            "engine_events": host.engine_events,
            "sim_per_wall": host.sim_per_wall,
            "events_per_sec": host.events_per_sec,
            "sections": host.section_shares(),
            "top_exclusive": host.top_exclusive(args.top),
        }, indent=2, sort_keys=True))
    else:
        print(render_selfprof(host, top=args.top))
    return 0


def cmd_logs(args: argparse.Namespace) -> int:
    """Browse the structured event log of a saved schema-v3 profile."""
    profile = _load_saved_run(args.file, LOG_FORMATS)
    log = profile.log
    if log is None:
        raise SystemExit(
            f"{args.file}: no event log found — produce one with "
            "`repro run --log-level LEVEL --profile-out PATH`"
        )

    records = log.records(min_level=args.level, rank=args.rank)
    if args.grep is not None:
        import re

        pattern = re.compile(args.grep)
        records = [
            r for r in records
            if pattern.search(r.message)
            or any(pattern.search(f"{k}={v}") for k, v in r.attrs)
        ]
    if args.around_span is not None:
        span = profile.tracer.get(args.around_span)
        if span is None:
            raise SystemExit(
                f"{args.file}: span id {args.around_span} not found"
            )
        end = span.end if span.end is not None else float("inf")
        records = [
            r for r in records
            if r.span_id == args.around_span
            or (span.start - 1e-9 <= r.t <= end + 1e-9)
        ]

    if args.json:
        import json

        print(json.dumps(
            {
                "meta": log.meta_dict(),
                "records": [r.to_dict() for r in records],
                "dumps": [d.to_dict() for d in log.dumps],
            },
            indent=2, sort_keys=True,
        ))
        return 0

    meta = log.meta_dict()
    print(f"event log: level={meta['level']} emitted={meta['emitted']} "
          f"retained={len(log)} shown={len(records)} "
          f"flight_dumps={len(log.dumps)}")
    for r in records:
        span = f" span={r.span_id}" if r.span_id is not None else ""
        rank = f" r{r.rank}" if r.rank is not None else ""
        labels = " ".join(f"{k}={v}" for k, v in r.attrs)
        labels = f"  [{labels}]" if labels else ""
        print(f"{r.t * 1e3:10.3f}ms {r.level:<7s} {r.logger:<10s}"
              f"{rank}{span}  {r.message}{labels}")
    if args.dumps and log.dumps:
        for i, d in enumerate(log.dumps):
            print(f"--- flight dump {i}: trigger={d.trigger} "
                  f"cause={d.cause!r} t={d.t * 1e3:.3f}ms "
                  f"({len(d.records)} records)")
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    from repro import obs

    cluster, app, config, result = _run_job(args)

    if args.check:
        problems = obs.check_profile(result.trace, result.makespan)
        if problems:
            for problem in problems:
                print(f"profile check FAILED: {problem}", file=sys.stderr)
            return 1

    if args.format == "chrome":
        text = result.trace.tracer.to_chrome_json(indent=args.indent)
        default_out = f"{app.name}.trace.json"
    else:
        text = _profile_text(args, cluster, app, config, result)
        default_out = f"{app.name}.profile.jsonl"

    out = args.out if args.out is not None else default_out
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        n_spans = len(result.trace.tracer)
        print(f"wrote {n_spans} spans to {out} ({args.format})")
        if args.check:
            print("profile check passed: spans consistent, phases tile the "
                  "makespan")
    return 0


@dataclass(frozen=True)
class WorkloadSpec:
    """One deterministic point of the standard workload sweep; its fields
    are the run options :func:`_build_app` reads."""

    name: str
    app: str
    policy: str
    size: int
    dims: int = 16
    clusters: int = 5
    iterations: int = 5
    nodes: int = 2
    preset: str = "delta"
    seed: int = 1


#: the standard sweep: the C-means flagship under three policies plus a
#: non-iterative staged workload and a 4-rank GMM, all small enough for
#: tier-1 (the golden fingerprint rows run every one)
DEFAULT_WORKLOADS: tuple[WorkloadSpec, ...] = (
    WorkloadSpec(name="cmeans-static", app="cmeans", policy="static",
                 size=2000),
    WorkloadSpec(name="cmeans-dynamic", app="cmeans", policy="dynamic",
                 size=2000),
    WorkloadSpec(name="cmeans-adaptive", app="cmeans",
                 policy="adaptive-feedback", size=2000),
    WorkloadSpec(name="gemv-static", app="gemv", policy="static",
                 size=2000, dims=256),
    WorkloadSpec(name="gmm-multirank", app="gmm", policy="static",
                 size=1500, nodes=4, iterations=4),
)


def _run_workload(spec: WorkloadSpec, **config_overrides: Any):
    """Execute one spec; returns the finished JobResult.

    *config_overrides* are passed to :class:`JobConfig` — the
    sampler-overhead benchmark uses ``sample_interval=None`` to run the
    identical workload without time-series sampling.
    """
    from repro.runtime.job import JobConfig
    from repro.runtime.prs import PRSRuntime

    app = _build_app(spec)
    cluster = _cluster_for(spec.preset, spec.nodes)
    config = JobConfig(scheduling=spec.policy, **config_overrides)
    return PRSRuntime(cluster, config).run(app)


def _build_app(args: argparse.Namespace | WorkloadSpec):
    from repro.apps.cmeans import CMeansApp
    from repro.apps.gemv import GemvApp
    from repro.apps.gmm import GMMApp
    from repro.apps.kmeans import KMeansApp
    from repro.apps.wordcount import WordCountApp
    from repro.data.synth import (
        gaussian_mixture,
        random_matrix,
        random_vector,
        text_corpus,
    )

    n = args.size
    if args.app == "cmeans":
        pts, _, _ = gaussian_mixture(n, args.dims, args.clusters, seed=args.seed)
        return CMeansApp(pts, args.clusters, seed=args.seed,
                         max_iterations=args.iterations)
    if args.app == "kmeans":
        pts, _, _ = gaussian_mixture(n, args.dims, args.clusters, seed=args.seed)
        return KMeansApp(pts, args.clusters, seed=args.seed,
                         max_iterations=args.iterations)
    if args.app == "gmm":
        pts, _, _ = gaussian_mixture(n, args.dims, args.clusters, seed=args.seed)
        return GMMApp(pts, args.clusters, seed=args.seed,
                      max_iterations=args.iterations)
    if args.app == "gemv":
        a = random_matrix(n, args.dims, seed=args.seed)
        return GemvApp(a, random_vector(args.dims, seed=args.seed + 1))
    if args.app == "wordcount":
        return WordCountApp(text_corpus(n, seed=args.seed))
    raise ValueError(f"unknown app {args.app!r}")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PRS reproduction: analytic CPU/GPU scheduling and the "
        "simulated heterogeneous MapReduce runtime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    advise = sub.add_parser("advise", help="print the Equation 8-11 plan")
    advise.add_argument("--node", choices=sorted(NODE_PRESETS), default="delta")
    advise.add_argument("--app", default="cmeans")
    advise.add_argument("--intensity", type=float, default=None,
                        help="custom arithmetic intensity (flops/byte)")
    advise.add_argument("--resident", action="store_true",
                        help="input cached in GPU memory (iterative apps)")
    advise.add_argument("--partition-bytes", type=float, default=256e6)
    advise.set_defaults(func=cmd_advise)

    roofline = sub.add_parser("roofline", help="print device rooflines")
    roofline.add_argument("--node", choices=sorted(NODE_PRESETS), default="delta")
    roofline.set_defaults(func=cmd_roofline)

    claims = sub.add_parser(
        "claims", help="list the paper claims this reproduction verifies"
    )
    claims.set_defaults(func=cmd_claims)

    policies = sub.add_parser(
        "policies", help="list the registered scheduling policies"
    )
    policies.set_defaults(func=cmd_policies)

    run = sub.add_parser("run", help="run a built-in app on a simulated cluster")
    _add_run_options(run)
    run.add_argument("--report", action="store_true",
                     help="print the full post-run report (devices, "
                          "iterations, timeline)")
    run.add_argument("--json", action="store_true",
                     help="emit the job result as JSON")
    run.add_argument("--profile", action="store_true",
                     help="save the run as profile JSONL "
                          "({app}.profile.jsonl, the bytes `trace export "
                          "--format profile` writes) and print the "
                          "observed-vs-predicted summary")
    run.add_argument("--profile-out", default=None, metavar="PATH",
                     help="profile destination (implies --profile)")
    run.add_argument("--dashboard-out", default=None, metavar="PATH",
                     help="write the standalone HTML run dashboard "
                          "(sparklines, alerts, phase timeline) to PATH; "
                          "byte-identical to `repro dashboard` on the "
                          "run's saved JSONL profile")
    run.set_defaults(func=cmd_run)

    metrics = sub.add_parser(
        "metrics",
        help="run an app and print its metrics registry "
             "(Prometheus text exposition)",
    )
    _add_run_options(metrics)
    metrics.add_argument("--format", choices=["text", "json"],
                         default="text",
                         help="text: Prometheus exposition; json: "
                              "machine-readable snapshot")
    metrics.set_defaults(func=cmd_metrics)

    analyze = sub.add_parser(
        "analyze",
        help="post-run trace analytics: critical path, imbalance/"
             "stragglers, scheduler-decision audit",
    )
    analyze.add_argument("profiles", nargs="*", metavar="PROFILE",
                         help="saved *.profile.jsonl run(s) or "
                              "directories of them; omit to run "
                              "an app live (full analysis incl. audit + "
                              "steal efficiency)")
    _add_run_options(analyze)
    analyze.add_argument("--json", action="store_true",
                         help="emit the analysis as JSON instead of text")
    analyze.add_argument("--out", default=None, metavar="PATH",
                         help="write the JSON analysis to PATH "
                              "('-' for stdout)")
    analyze.add_argument("--top", type=int, default=3,
                         help="stragglers to report (default 3)")
    analyze.add_argument("--comm", action="store_true",
                         help="include the communication section: comm "
                              "matrix, link utilization, and the "
                              "sender/network/compute slack attribution "
                              "of the critical path")
    analyze.add_argument("--check", action="store_true",
                         help="fail (exit 1) unless critical path + slack "
                              "tiles the makespan within 1e-6 s, the "
                              "slack decomposition sums to total slack, "
                              "and send/recv spans pair 1:1")
    analyze.add_argument("--self", dest="self_host", action="store_true",
                         help="also self-profile the simulator's host "
                              "wall clock during the live run (or read a "
                              "saved profile's host_profile line) and "
                              "merge the top hotspots + sim-s/wall-s into "
                              "the report (docs/PROFILING.md)")
    analyze.set_defaults(func=cmd_analyze)

    dashboard = sub.add_parser(
        "dashboard",
        help="render saved profiles into standalone HTML dashboards "
             "(sparklines, alert timeline, phase gantt; no external "
             "assets)",
    )
    dashboard.add_argument("profiles", nargs="+", metavar="PROFILE",
                           help="*.profile.jsonl files, or directories of "
                                "them")
    dashboard.add_argument("--out", default=None, metavar="PATH",
                           help="output HTML ('-' for stdout; needs exactly "
                                "one input; default "
                                "<profile>.dashboard.html)")
    dashboard.set_defaults(func=cmd_dashboard)

    selfprof = sub.add_parser(
        "selfprof",
        help="report a saved host self-profile: top exclusive hotspots, "
             "per-subsystem wall-clock shares, sim-time-per-wall-second "
             "(docs/PROFILING.md)",
    )
    selfprof.add_argument("file", metavar="FILE",
                          help="a *.profile.jsonl of a --selfprof run "
                               "(run --selfprof --profile-out PATH)")
    selfprof.add_argument("--top", type=int, default=10,
                          help="hotspots to report (default 10)")
    selfprof.add_argument("--json", action="store_true",
                          help="emit the report as JSON")
    selfprof.add_argument("--speedscope", default=None, metavar="PATH",
                          help="also export the call tree as speedscope "
                               "JSON (https://speedscope.app)")
    selfprof.add_argument("--collapsed", default=None, metavar="PATH",
                          help="also export Brendan-Gregg collapsed stacks "
                               "(flamegraph.pl input)")
    selfprof.set_defaults(func=cmd_selfprof)

    logs = sub.add_parser(
        "logs",
        help="browse the structured event log of a saved schema-v3 "
             "*.profile.jsonl (filter by level/rank/regex/span; "
             "docs/LOGGING.md)",
    )
    logs.add_argument("file", metavar="FILE",
                      help="a *.profile.jsonl from a --log-level run")
    logs.add_argument("--level", default=None,
                      choices=["debug", "info", "warning", "error"],
                      help="minimum level to show")
    logs.add_argument("--rank", type=int, default=None,
                      help="only records attributed to this rank")
    logs.add_argument("--grep", default=None, metavar="REGEX",
                      help="only records whose message or labels match")
    logs.add_argument("--around-span", type=int, default=None, metavar="ID",
                      help="only records correlated to span ID or "
                           "timestamped inside its [start, end] window")
    logs.add_argument("--dumps", action="store_true",
                      help="also summarize the flight-recorder dumps")
    logs.add_argument("--json", action="store_true",
                      help="emit records (post-filter) + dumps as JSON")
    logs.set_defaults(func=cmd_logs)

    trace = sub.add_parser("trace", help="trace/profile utilities")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export", help="run an app and export its span hierarchy"
    )
    _add_run_options(export)
    export.add_argument("--format", choices=["chrome", "profile"],
                        default="chrome",
                        help="chrome: trace-event JSON for Perfetto / "
                             "chrome://tracing (export only; no command "
                             "reads it back); profile: JSONL with a meta "
                             "line, one line per span and per sampled "
                             "series (plus host profile and event log when "
                             "on), read by `repro analyze`, `dashboard`, "
                             "`selfprof` and `logs`")
    export.add_argument("--out", default=None, metavar="PATH",
                        help="output file ('-' for stdout; default "
                             "{app}.trace.json / {app}.profile.jsonl)")
    export.add_argument("--indent", type=int, default=None,
                        help="pretty-print the chrome JSON")
    export.add_argument("--check", action="store_true",
                        help="fail (exit 1) unless the profile passes the "
                             "span/metric self-consistency checks")
    export.set_defaults(func=cmd_trace_export)
    return parser


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """The options shared by every app-executing subcommand."""
    parser.add_argument("--app", default="cmeans",
                        choices=["cmeans", "kmeans", "gmm", "gemv",
                                 "wordcount"])
    parser.add_argument("--node", choices=sorted(NODE_PRESETS),
                        default="delta")
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--size", type=int, default=20_000,
                        help="points / rows / documents")
    parser.add_argument("--dims", type=int, default=16)
    parser.add_argument("--clusters", type=int, default=5)
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    from repro.runtime.policies import available_policies

    parser.add_argument("--policy", default="static", metavar="POLICY",
                        help="scheduling policy from the registry: "
                             f"{', '.join(available_policies())}"
                             "; see `repro policies`")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--gpu-only", action="store_true")
    group.add_argument("--cpu-only", action="store_true")
    parser.add_argument("--faults", action="append", metavar="SPEC",
                        help="inject a fault: kind@target:key=val,... "
                             "(e.g. gpu_kill@0:t=0.01, rank_kill@2:t=5e-3, "
                             "net_slow@*:t=0,until=0.02,factor=4); repeat "
                             "for multiple faults — see docs/FAULTS.md")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="seed for sampling ranged (lo~hi) fault "
                             "parameters (default: --seed)")
    parser.add_argument("--initial-nodes", type=int, default=None,
                        metavar="N",
                        help="elastic membership: start on the first N pool "
                             "nodes; join/drain fault specs and --autoscale "
                             "then walk the live set within the pool "
                             "(docs/FAULTS.md 'Elasticity')")
    parser.add_argument("--autoscale", action="append", metavar="KEY=VAL",
                        nargs="?", const="", default=None,
                        help="enable the closed-loop autoscaler; repeatable "
                             "KEY=VAL knobs (e.g. --autoscale min_nodes=2 "
                             "--autoscale max_nodes=6); bare flag uses "
                             "defaults — see docs/FAULTS.md")
    parser.add_argument("--selfprof", action="store_true",
                        help="profile the simulator's own host wall clock "
                             "(engine dispatch, kernels, comm, policy, "
                             "allocator, tracer overhead) and print the "
                             "hotspot report (a saved profile carries it "
                             "for `repro selfprof`); simulated results are "
                             "bitwise identical either way "
                             "(docs/PROFILING.md)")
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warning", "error"],
                        help="enable the structured event log + fault "
                             "flight recorder at this level; simulated "
                             "results are bitwise identical either way "
                             "(docs/LOGGING.md)")
    sampling = parser.add_mutually_exclusive_group()
    sampling.add_argument("--no-sample", action="store_true",
                          help="disable the time-series metric sampler "
                               "(schedules are bitwise identical either "
                               "way; this only drops the series + alerts)")
    sampling.add_argument("--sample-interval", type=float, default=None,
                          metavar="SECONDS",
                          help="simulated-clock sampling pitch (default "
                               "1e-3)")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
