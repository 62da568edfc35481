"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.obs import SpanTracer


class TestAdvise:
    def test_cmeans_on_delta(self, capsys):
        assert main(["advise", "--node", "delta", "--app", "cmeans"]) == 0
        out = capsys.readouterr().out
        assert "CPU share p" in out
        assert "11.2%" in out  # Table 5 value

    def test_gemv_staged(self, capsys):
        main(["advise", "--node", "delta", "--app", "gemv"])
        out = capsys.readouterr().out
        assert "97.2%" in out
        assert "staged via PCI-E" in out

    def test_resident_flag(self, capsys):
        main(["advise", "--app", "gemv", "--resident"])
        out = capsys.readouterr().out
        assert "resident in GPU memory" in out

    def test_custom_intensity(self, capsys):
        main(["advise", "--intensity", "7.5"])
        out = capsys.readouterr().out
        assert "custom(A=7.5)" in out

    def test_unknown_app_exits(self):
        with pytest.raises(SystemExit):
            main(["advise", "--app", "nonsense"])

    def test_mic_preset(self, capsys):
        assert main(["advise", "--node", "mic", "--app", "gmm"]) == 0
        assert "mic" in capsys.readouterr().out


class TestRoofline:
    @pytest.mark.parametrize("node", ["delta", "bigred2", "mic"])
    def test_prints_ridges(self, capsys, node):
        assert main(["roofline", "--node", node]) == 0
        out = capsys.readouterr().out
        assert "ridge A" in out
        assert "GPU staged" in out


class TestRun:
    def test_cmeans_run(self, capsys):
        code = main([
            "run", "--app", "cmeans", "--size", "2000", "--nodes", "2",
            "--iterations", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "split (eq 8)" in out

    def test_gemv_gpu_only(self, capsys):
        code = main([
            "run", "--app", "gemv", "--size", "1000", "--dims", "32",
            "--gpu-only",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "GPU" in out
        assert "split (eq 8)" not in out  # single device class: no split

    def test_wordcount_dynamic(self, capsys):
        code = main([
            "run", "--app", "wordcount", "--size", "50",
            "--policy", "dynamic",
        ])
        assert code == 0

    def test_conflicting_device_flags_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--gpu-only", "--cpu-only"])

    def test_faulted_run_reports_recovery(self, capsys):
        code = main([
            "run", "--app", "cmeans", "--size", "2000", "--nodes", "2",
            "--iterations", "3", "--faults", "gpu_kill@0:t=0.03",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults         : 1 injected" in out
        assert "blocks retried" in out

    def test_faulted_json_includes_recovery(self, capsys):
        import json

        code = main([
            "run", "--app", "cmeans", "--size", "2000", "--nodes", "2",
            "--iterations", "3", "--json",
            "--faults", "gpu_kill@0:t=0.03",
            "--faults", "straggler@1.cpu:factor=2,t0=0.02,t1=0.05",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recovery"]["faults_injected"] >= 1
        assert payload["recovery"]["blocks_retried"] > 0

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(ValueError):
            main(["run", "--faults", "quantum_flip@0:t=1"])

    def test_elastic_run_reports_membership(self, capsys):
        code = main([
            "run", "--app", "gmm", "--size", "2000", "--dims", "6",
            "--nodes", "4", "--iterations", "4", "--initial-nodes", "2",
            "--faults", "join@2:t=0.03",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "membership     : 1 transitions (1 joins, 0 drains" in out
        assert "ranks 2 -> 3" in out

    def test_elastic_json_includes_epochs(self, capsys):
        import json

        code = main([
            "run", "--app", "gmm", "--size", "2000", "--dims", "6",
            "--nodes", "4", "--iterations", "4", "--initial-nodes", "2",
            "--faults", "join@2:t=0.03", "--faults", "drain@2:t=0.05",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rec = payload["recovery"]
        assert rec["joins"] == 1 and rec["drains"] == 1
        causes = [e["cause"] for e in rec["epochs"]]
        assert causes == ["start", "join", "drain"]
        assert rec["epochs"][0]["members"] == [0, 1]

    def test_bad_autoscale_knob_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--autoscale", "min_nodes=lots"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestProfileFlag:
    RUN = [
        "run", "--app", "cmeans", "--size", "2000", "--nodes", "2",
        "--iterations", "3",
    ]

    def test_profile_writes_profile_jsonl(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.RUN + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile written: cmeans.profile.jsonl" in out
        assert "observed vs Equation (8)" in out
        assert "phase tiling" in out
        from repro.obs.profile import load_profile

        profile = load_profile(str(tmp_path / "cmeans.profile.jsonl"))
        assert profile.meta["app"] == "cmeans"
        assert profile.bank is not None and len(profile.tracer)

    def test_profile_out_path(self, capsys, tmp_path):
        target = tmp_path / "custom.json"
        assert main(self.RUN + ["--profile-out", str(target)]) == 0
        assert target.exists()

    @pytest.mark.parametrize("extra", [
        [],
        ["--app", "gmm", "--nodes", "4", "--log-level", "debug",
         "--faults", "gpu_kill@0:t=0.01"],
    ], ids=["cmeans", "gmm-logged-faulted"])
    def test_profile_out_equals_trace_export(self, capsys, tmp_path, extra):
        """`run --profile-out` and `trace export --format profile` save
        the same bytes, and every saved-run reader opens them."""
        run, export = tmp_path / "run.profile.jsonl", tmp_path / "x.jsonl"
        options = self.RUN[1:] + extra
        assert main(["run", *options, "--profile-out", str(run)]) == 0
        assert main(["trace", "export", *options, "--format", "profile",
                     "--out", str(export)]) == 0
        assert run.read_bytes() == export.read_bytes()
        assert main(["analyze", str(run), "--check"]) == 0
        assert main(["dashboard", str(run)]) == 0
        assert (tmp_path / "run.dashboard.html").exists()

    def test_json_mode_reports_profile_path(self, capsys, tmp_path):
        import json

        target = tmp_path / "p.json"
        assert main(self.RUN + ["--json", "--profile-out", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"] == str(target)


class TestMetricsCommand:
    def test_prometheus_exposition(self, capsys):
        code = main([
            "metrics", "--app", "cmeans", "--size", "1000", "--nodes", "1",
            "--iterations", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE prs_device_busy_seconds_total counter" in out
        assert "prs_phase_seconds_total{" in out
        assert 'prs_policy_blocks_dispatched_total{' in out
        assert "prs_job_makespan_seconds" in out

    def test_json_format(self, capsys):
        import json

        code = main([
            "metrics", "--app", "cmeans", "--size", "1000", "--nodes", "1",
            "--iterations", "2", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "prs_device_flops_total" in payload
        assert "prs_job_makespan_seconds" in payload
        # Self-describing shape: HELP/TYPE metadata alongside samples,
        # mirroring the Prometheus text exposition's comment lines.
        for entry in payload.values():
            assert set(entry) == {"help", "type", "samples"}
            assert entry["type"] in {
                "counter", "gauge", "histogram", "untyped"
            }
            assert isinstance(entry["samples"], list)
        assert payload["prs_device_flops_total"]["type"] == "counter"
        assert payload["prs_job_makespan_seconds"]["type"] == "gauge"


class TestTraceExport:
    RUN = [
        "trace", "export", "--app", "cmeans", "--size", "1000",
        "--nodes", "2", "--iterations", "2",
    ]

    def test_chrome_export_with_check(self, capsys, tmp_path):
        target = tmp_path / "out.trace.json"
        assert main(self.RUN + ["--check", "--out", str(target)]) == 0
        out = capsys.readouterr().out
        assert "profile check passed" in out
        import json

        payload = json.loads(target.read_text())
        assert payload["traceEvents"]

    def test_stdout_export(self, capsys):
        import json

        assert main(self.RUN + ["--out", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["traceEvents"]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["trace"])


class TestPoliciesCommand:
    def test_lists_registered_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in (
            "static",
            "dynamic",
            "adaptive-feedback",
            "locality-dynamic",
        ):
            assert name in out


class TestRunPolicyFlag:
    RUN = [
        "run", "--app", "cmeans", "--size", "2000", "--nodes", "2",
        "--iterations", "3",
    ]

    def test_adaptive_feedback_prints_breakdown(self, capsys):
        assert main(self.RUN + ["--policy", "adaptive-feedback"]) == 0
        out = capsys.readouterr().out
        assert "adaptive-feedback" in out
        assert "phase breakdown" in out
        for phase in ("map", "shuffle", "reduce", "gather"):
            assert phase in out

    def test_default_run_prints_policy_and_phases(self, capsys):
        assert main(self.RUN) == 0
        out = capsys.readouterr().out
        assert "policy         : static" in out
        assert "phase breakdown" in out

    def test_json_includes_policy_and_phase_breakdown(self, capsys):
        import json

        assert main(self.RUN + ["--policy", "locality-dynamic", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "locality-dynamic"
        assert "-1" in payload["phase_breakdown"]
        assert "map" in payload["phase_breakdown"]["0"]

    def test_unknown_policy_fails(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            main(self.RUN + ["--policy", "nonsense"])

    def test_report_includes_phase_table(self, capsys):
        assert main(self.RUN + ["--report"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "policy            : static" in out


class TestAnalyzeCommand:
    RUN = [
        "analyze", "--app", "cmeans", "--size", "2000", "--nodes", "2",
        "--iterations", "3",
    ]

    def test_live_run_text_output(self, capsys):
        assert main(self.RUN) == 0
        out = capsys.readouterr().out
        assert "critical path (what the makespan was waiting on):" in out
        assert "tiling gap" in out
        assert "top stragglers" in out
        assert "model drift" in out

    def test_check_passes_on_live_run(self, capsys):
        assert main(self.RUN + ["--check"]) == 0
        out = capsys.readouterr().out
        assert "analysis check passed" in out

    def test_comm_section_on_live_run(self, capsys):
        assert main(self.RUN + ["--comm"]) == 0
        out = capsys.readouterr().out
        assert "communication (matched send/recv message spans):" in out
        assert "path waits on" in out
        assert "comm matrix" in out
        assert "link utilization" in out

    def test_comm_section_from_saved_profile(self, capsys, tmp_path):
        target = tmp_path / "run.profile.jsonl"
        assert main([
            "trace", "export", "--app", "cmeans", "--size", "1000",
            "--nodes", "2", "--iterations", "2", "--format", "profile",
            "--out", str(target),
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", str(target), "--comm", "--check"]) == 0
        out = capsys.readouterr().out
        assert "comm matrix" in out
        assert "message spans pair 1:1" in out

    def test_comm_json_payload(self, capsys):
        import json

        assert main(self.RUN + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (analysis,) = payload.values()
        comm = analysis["comm"]
        assert comm["messages"] > 0
        assert comm["unpaired_recvs"] == 0
        assert comm["matrix"]
        assert analysis["critical_path"]["slack_decomposition"]

    def test_json_payload(self, capsys):
        import json

        assert main(self.RUN + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (analysis,) = payload.values()
        assert analysis["critical_path"]["tiling_gap_s"] <= 1e-6
        assert analysis["decisions"]
        assert analysis["imbalance"]["devices"]

    def test_saved_profile_analysis(self, capsys, tmp_path):
        target = tmp_path / "run.profile.jsonl"
        assert main([
            "run", "--app", "cmeans", "--size", "1000",
            "--nodes", "2", "--iterations", "2", "--profile-out", str(target),
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", str(target), "--check"]) == 0
        out = capsys.readouterr().out
        assert f"=== {target}" in out
        assert "analysis check passed" in out

    def test_directory_of_profiles(self, capsys, tmp_path):
        # a directory is read for its profiles; a Chrome export beside
        # them is not a saved run and is skipped
        run = ["--app", "cmeans", "--size", "1000", "--nodes", "2",
               "--iterations", "2"]
        target = tmp_path / "a.profile.jsonl"
        assert main(["run", *run, "--profile-out", str(target)]) == 0
        assert main(["trace", "export", *run,
                     "--out", str(tmp_path / "a.trace.json")]) == 0
        capsys.readouterr()
        assert main(["analyze", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"=== {target}" in out and "trace.json" not in out

    def test_missing_profile_exits(self):
        with pytest.raises(SystemExit, match="not found"):
            main(["analyze", "/nonexistent/thing.profile.jsonl"])

    def _export_profile(self, capsys, target, *extra):
        assert main([
            "trace", "export", "--app", "cmeans", "--size", "1000",
            "--nodes", "2", "--iterations", "2", *extra,
            "--format", "profile", "--out", str(target),
        ]) == 0
        capsys.readouterr()

    def test_saved_profile_jsonl_check(self, capsys, tmp_path):
        target = tmp_path / "run.profile.jsonl"
        self._export_profile(capsys, target)
        assert main(["analyze", str(target), "--check"]) == 0
        out = capsys.readouterr().out
        assert f"=== {target}" in out
        assert "analysis check passed" in out

    def test_directory_of_profile_jsonl(self, capsys, tmp_path):
        target = tmp_path / "a.profile.jsonl"
        self._export_profile(capsys, target)
        assert main(["analyze", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"=== {target}" in out
        assert "critical path" in out

    @pytest.mark.parametrize("app, nodes", [("cmeans", "2"), ("gmm", "4")])
    def test_saved_profile_jsonl_matches_live_json(
        self, capsys, tmp_path, app, nodes
    ):
        import json

        run = ["--app", app, "--size", "1000", "--nodes", nodes,
               "--iterations", "2"]
        target = tmp_path / "run.profile.jsonl"
        assert main(["trace", "export", *run, "--format", "profile",
                     "--out", str(target)]) == 0
        capsys.readouterr()
        assert main(["analyze", *run, "--json"]) == 0
        (live,) = json.loads(capsys.readouterr().out).values()
        assert main(["analyze", str(target), "--json"]) == 0
        (saved,) = json.loads(capsys.readouterr().out).values()
        assert saved["critical_path"] == live["critical_path"]
        assert saved["comm"] == live["comm"]
        assert live["comm"]["messages"] > 0

    def test_saved_profile_with_log_pairs_errors(self, capsys, tmp_path):
        target = tmp_path / "logged.profile.jsonl"
        self._export_profile(capsys, target, "--log-level", "info",
                             "--faults", "gpu_kill@0:t=0.01")
        assert main(["analyze", str(target), "--check"]) == 0
        assert "ERROR log records pair" in capsys.readouterr().out


class TestBadSavedRuns:
    """Every reader of a saved run fails with one line naming the file
    and the formats it accepts, never a traceback or a vacuous pass.  A
    Chrome export is not a saved run."""

    READERS = [
        (["analyze"], "profile.jsonl"),
        (["analyze", "--check"], "profile.jsonl"),
        (["dashboard"], "profile.jsonl"),
        (["selfprof"], "--selfprof run"),
        (["logs"], "log-level"),
    ]

    @staticmethod
    def _chrome(indent):
        tracer = SpanTracer()
        tracer.record("map", "rank0", 0.0, 1.0, category="phase")
        return tracer.to_chrome_json(indent=indent)

    @pytest.mark.parametrize("content", [
        '{"a": 1}\n', "hello\n", "",
        pytest.param(_chrome(None), id="chrome"),
        pytest.param(_chrome(2), id="chrome-indent2"),
    ])
    @pytest.mark.parametrize("reader, accepts", READERS)
    def test_unreadable_file_exits_naming_it(
        self, tmp_path, reader, accepts, content
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main([reader[0], str(bad), *reader[1:]])
        message = str(exc.value.code)
        assert message.startswith(f"{bad}: not a saved run")
        assert "*.profile.jsonl" in message and accepts in message
        assert "\n" not in message

    @pytest.mark.parametrize("bad, why", [
        ('{"span_id": 1, ', "Expecting property name"),
        ("42", "a JSON int, not an object"),
    ])
    def test_bad_line_is_named_by_its_file_line(self, tmp_path, bad, why):
        path = tmp_path / "bad.profile.jsonl"
        path.write_text('{"profile_meta": {"schema_version": 4}}\n'
                        '{"span_id": 0}\n' + bad + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path)])
        assert str(exc.value.code).startswith(
            f"{path}: not a saved run (profile line 3: {why}"
        )

    @pytest.mark.parametrize("reader", [["analyze", "--check"], ["dashboard"],
                                        ["logs"]])
    def test_file_without_spans_exits(self, tmp_path, reader):
        empty = tmp_path / "empty.profile.jsonl"
        empty.write_text('{"profile_meta": {"schema_version": 4}}\n')
        with pytest.raises(SystemExit, match="holds no span"):
            main([reader[0], str(empty), *reader[1:]])


class TestRunAnalysisSurface:
    RUN = [
        "run", "--app", "cmeans", "--size", "2000", "--nodes", "2",
        "--iterations", "3",
    ]

    def test_json_includes_analysis_block(self, capsys):
        import json

        assert main(self.RUN + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        analysis = payload["analysis"]
        assert analysis["critical_path"]["tiling_gap_s"] <= 1e-6
        assert analysis["model_drift"] is not None

    def test_report_includes_critical_path_and_stragglers(self, capsys):
        assert main(self.RUN + ["--report"]) == 0
        out = capsys.readouterr().out
        assert "critical path (what the makespan was waiting on):" in out
        assert "top stragglers" in out
        assert "model drift" in out


class TestSelfprofCLI:
    RUN = [
        "run", "--app", "cmeans", "--size", "600", "--nodes", "2",
        "--iterations", "2",
    ]

    def test_run_selfprof_prints_hotspot_report(self, capsys):
        assert main(self.RUN + ["--selfprof"]) == 0
        out = capsys.readouterr().out
        assert "host self-profile" in out
        assert "host wall-clock by subsystem (exclusive):" in out
        assert "engine" in out

    def test_run_selfprof_json_payload(self, capsys):
        import json

        assert main(self.RUN + ["--selfprof", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        host = payload["host"]
        assert host["wall_s"] > 0
        assert host["events_per_sec"] > 0
        assert "engine" in host["sections"]
        assert "kernel" in host["sections"]
        assert host["top_exclusive"]

    def test_plain_run_has_no_host_block(self, capsys):
        import json

        assert main(self.RUN + ["--json"]) == 0
        assert "host" not in json.loads(capsys.readouterr().out)

    def test_selfprof_out_then_report(self, capsys, tmp_path):
        # the saved run of a --selfprof run carries its host profile
        target = tmp_path / "host.profile.jsonl"
        assert main(self.RUN + ["--selfprof", "--profile-out",
                                str(target)]) == 0
        capsys.readouterr()
        assert target.exists()
        assert main(["selfprof", str(target)]) == 0
        out = capsys.readouterr().out
        assert "host self-profile" in out
        assert "scope path" in out

    def test_selfprof_report_json_and_exports(self, capsys, tmp_path):
        import json

        target = tmp_path / "host.profile.jsonl"
        assert main(self.RUN + ["--selfprof", "--profile-out",
                                str(target)]) == 0
        capsys.readouterr()
        speedscope = tmp_path / "host.speedscope.json"
        collapsed = tmp_path / "host.collapsed.txt"
        assert main([
            "selfprof", str(target), "--json",
            "--speedscope", str(speedscope),
            "--collapsed", str(collapsed),
        ]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["wall_s"] > 0
        assert "engine" in payload["sections"]
        doc = json.loads(speedscope.read_text())
        assert doc["profiles"][0]["unit"] == "seconds"
        assert collapsed.read_text().splitlines()

    def test_selfprof_reads_profile_jsonl(self, capsys, tmp_path):
        profile = tmp_path / "run.profile.jsonl"
        assert main([
            "trace", "export", "--app", "cmeans", "--size", "600",
            "--nodes", "2", "--iterations", "2", "--selfprof",
            "--format", "profile", "--out", str(profile),
        ]) == 0
        capsys.readouterr()
        assert main(["selfprof", str(profile)]) == 0
        assert "host self-profile" in capsys.readouterr().out

    def test_selfprof_rejects_profile_without_host(self, capsys, tmp_path):
        profile = tmp_path / "plain.profile.jsonl"
        assert main([
            "trace", "export", "--app", "cmeans", "--size", "600",
            "--nodes", "2", "--iterations", "2",
            "--format", "profile", "--out", str(profile),
        ]) == 0
        with pytest.raises(SystemExit, match="no host self-profile"):
            main(["selfprof", str(profile)])

    def test_analyze_self_live_run(self, capsys):
        assert main([
            "analyze", "--app", "cmeans", "--size", "600", "--nodes", "2",
            "--iterations", "2", "--self",
        ]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "host self-profile" in out

    def test_analyze_self_saved_profile(self, capsys, tmp_path):
        profile = tmp_path / "run.profile.jsonl"
        assert main([
            "trace", "export", "--app", "cmeans", "--size", "600",
            "--nodes", "2", "--iterations", "2", "--selfprof",
            "--format", "profile", "--out", str(profile),
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", str(profile), "--self"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "host self-profile" in out

    def test_analyze_self_json_merges_host(self, capsys):
        import json

        assert main([
            "analyze", "--app", "cmeans", "--size", "600", "--nodes", "2",
            "--iterations", "2", "--self", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        host = payload["cmeans"]["host"]
        assert host["wall_s"] > 0
        assert "engine" in host["sections"]


class TestLogsCommand:
    RUN = [
        "--app", "cmeans", "--size", "600", "--nodes", "2",
        "--iterations", "2", "--log-level", "info",
        "--faults", "gpu_kill@0:t=0.01",
    ]

    def _export(self, tmp_path, capsys):
        profile = tmp_path / "logged.profile.jsonl"
        assert main([
            "trace", "export", *self.RUN,
            "--format", "profile", "--out", str(profile),
        ]) == 0
        capsys.readouterr()  # discard the "wrote N spans" line
        return profile

    def test_run_json_carries_logs_block(self, capsys):
        import json

        assert main(["run", *self.RUN, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        logs = payload["logs"]
        assert logs["level"] == "info"
        assert logs["emitted"] >= logs["records"] >= 0
        assert isinstance(logs["dumps"], list)

    def test_run_rank_kill_json_carries_flight_dumps(self, capsys):
        # A rank killed mid-run with logging on: the flight recorder
        # dumps the causally ordered log tail at the injection and at
        # the rank-kill recovery, and the dumps ride the recovery summary.
        import json

        assert main([
            "run", "--app", "cmeans", "--size", "600", "--nodes", "2",
            "--iterations", "2", "--faults", "rank_kill@1:t=0.01",
            "--fault-seed", "7", "--log-level", "info", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        logs = payload["logs"]
        assert logs["records"] > 0 and logs["emitted"] >= logs["records"]
        assert logs["dumps"], "flight recorder never dumped"
        dumps = payload["recovery"]["flight_dumps"]
        assert any(d["trigger"] == "fault" for d in dumps)
        for d in dumps:
            seqs = [r["seq"] for r in d["records"]]
            assert seqs == sorted(seqs), "dump not causally ordered"
        messages = [r["message"] for d in dumps for r in d["records"]]
        assert any("rank_kill" in m for m in messages), messages

    def test_run_text_mentions_event_log(self, capsys):
        assert main(["run", *self.RUN]) == 0
        assert "event log" in capsys.readouterr().out

    def test_logs_reads_saved_profile(self, capsys, tmp_path):
        profile = self._export(tmp_path, capsys)
        assert main(["logs", str(profile)]) == 0
        out = capsys.readouterr().out
        assert "event log: level=info" in out

    def test_logs_filters(self, capsys, tmp_path):
        import json

        profile = self._export(tmp_path, capsys)
        assert main([
            "logs", str(profile), "--level", "info", "--grep", ".", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["level"] == "info"
        for record in payload["records"]:
            assert record["level"] in {"info", "warning", "error"}

    def test_logs_around_span(self, capsys, tmp_path):
        import json

        profile = self._export(tmp_path, capsys)
        assert main(["logs", str(profile), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        spanned = [
            r for r in payload["records"] if r["span_id"] is not None
        ]
        if not spanned:
            pytest.skip("no span-correlated records in this run")
        span_id = spanned[0]["span_id"]
        assert main([
            "logs", str(profile), "--around-span", str(span_id), "--json",
        ]) == 0
        narrowed = json.loads(capsys.readouterr().out)
        assert narrowed["records"]
        assert len(narrowed["records"]) <= len(payload["records"])

    def test_logs_rejects_profile_without_log(self, tmp_path):
        profile = tmp_path / "plain.profile.jsonl"
        assert main([
            "trace", "export", "--app", "cmeans", "--size", "600",
            "--nodes", "2", "--iterations", "2",
            "--format", "profile", "--out", str(profile),
        ]) == 0
        with pytest.raises(SystemExit, match="no event log"):
            main(["logs", str(profile)])

    def test_analyze_check_cross_validates_log(self, capsys):
        assert main([
            "analyze", *self.RUN, "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "ERROR log records pair" in out
