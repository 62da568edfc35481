"""Profile serialization round-trips, dashboard rendering, and the CLI
surface that ties them together (`repro dashboard`, `run
--dashboard-out`, `trace export --format profile`)."""

import hashlib
import json

import pytest

from repro.apps.cmeans import CMeansApp
from repro.cli import main
from repro.data.synth import gaussian_mixture
from repro.obs.dashboard import render_dashboard
from repro.obs.log import EventLog, FlightDump, LogRecord
from repro.obs.profile import (
    PROFILE_SCHEMA_VERSION,
    LoadedProfile,
    load_profile,
    loads_profile,
    profile_jsonl,
)
from repro.hardware import delta_cluster
from repro.obs.rules import ALERT_CATEGORY
from repro.obs.selfprof import HostProfile
from repro.obs.spans import SpanTracer
from repro.runtime.job import JobConfig
from repro.runtime.prs import PRSRuntime


def run_cmeans(**config_kwargs):
    pts, _, _ = gaussian_mixture(600, 8, 4, seed=3)
    app = CMeansApp(pts, 4, seed=3, max_iterations=3, epsilon=1e-12)
    return PRSRuntime(delta_cluster(2), JobConfig(**config_kwargs)).run(app)


class TestProfileRoundTrip:
    def test_spans_series_meta_survive(self):
        result = run_cmeans(sample_interval=1e-3)
        meta = {"app": "cmeans", "makespan_s": result.makespan}
        text = profile_jsonl(result.trace, meta)
        loaded = loads_profile(text)
        assert loaded.meta["app"] == "cmeans"
        assert loaded.meta["schema_version"] == PROFILE_SCHEMA_VERSION
        assert loaded.makespan == result.makespan
        assert len(loaded.tracer.spans) == len(result.trace.tracer.spans)
        assert loaded.bank is not None
        live = result.trace.sampler.bank
        assert loaded.bank.to_jsonl_lines() == live.to_jsonl_lines()

    def test_span_ids_preserved(self):
        result = run_cmeans(sample_interval=1e-3)
        loaded = loads_profile(profile_jsonl(result.trace, {}))
        original = {s.span_id for s in result.trace.tracer.spans}
        assert {s.span_id for s in loaded.tracer.spans} == original

    def test_serialize_is_idempotent_fixed_point(self):
        # parse -> serialize must reproduce the original bytes (modulo
        # the meta header, which we hold constant here).
        result = run_cmeans(sample_interval=1e-3)
        meta = {"app": "cmeans"}
        text = profile_jsonl(result.trace, meta)
        loaded = loads_profile(text)
        lines = text.splitlines()
        reloaded_series = loaded.bank.to_jsonl_lines()
        assert [ln for ln in lines if '"series"' in ln] == reloaded_series

    def test_unsampled_run_has_no_series_lines(self):
        result = run_cmeans(sample_interval=None)
        text = profile_jsonl(result.trace, {})
        loaded = loads_profile(text)
        assert loaded.bank is None
        assert all('"series"' not in ln for ln in text.splitlines()[1:])

    def test_newer_schema_rejected(self):
        line = json.dumps(
            {"profile_meta": {"schema_version": PROFILE_SCHEMA_VERSION + 1}}
        )
        with pytest.raises(ValueError, match="newer than this reader"):
            loads_profile(line + "\n")

    def test_malformed_line_rejected(self):
        text = (
            json.dumps({"profile_meta": {"schema_version": 1}})
            + "\n"
            + json.dumps({"bogus": 1})
            + "\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            loads_profile(text)

    @pytest.mark.parametrize("bad, why", [
        ('{"span_id": 1, ', "Expecting property name"),
        ("7", "a JSON int, not an object"),
        ('["span_id"]', "a JSON list, not an object"),
    ])
    def test_undecodable_or_non_object_line_names_its_line(self, bad, why):
        meta = json.dumps({"profile_meta": {"schema_version": 1}})
        with pytest.raises(ValueError, match=f"^profile line 3: {why}"):
            loads_profile(f"{meta}\n\n{bad}\n")

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError, match="empty profile"):
            loads_profile("  \n ")

    def test_alert_spans_round_trip(self):
        result = run_cmeans(
            sample_interval=1e-3,
            faults="net_slow@*:factor=3,t0=0,t1=1",
            fault_seed=7,
        )
        live_alerts = result.trace.tracer.find(category=ALERT_CATEGORY)
        assert live_alerts  # the fault plan must fire at least one rule
        loaded = loads_profile(profile_jsonl(result.trace, {}))
        names = sorted(s.name for s in loaded.tracer.find(
            category=ALERT_CATEGORY))
        assert names == sorted(s.name for s in live_alerts)


class TestRenderDashboard:
    def test_deterministic_bytes(self):
        a = run_cmeans(sample_interval=1e-3)
        b = run_cmeans(sample_interval=1e-3)
        page_a = render_dashboard(loads_profile(profile_jsonl(a.trace, {})))
        page_b = render_dashboard(loads_profile(profile_jsonl(b.trace, {})))
        assert page_a == page_b

    def test_sections_present(self):
        result = run_cmeans(sample_interval=1e-3)
        meta = {"app": "cmeans", "makespan_s": result.makespan}
        page = render_dashboard(loads_profile(profile_jsonl(result.trace, meta)))
        for marker in ("<h2>Alerts</h2>", "<h2>Phase timeline</h2>",
                       "<h2>Sampled series</h2>", "prs_device_busy_fraction",
                       "<svg"):
            assert marker in page

    def test_title_override(self):
        result = run_cmeans(sample_interval=1e-3)
        page = render_dashboard(
            loads_profile(profile_jsonl(result.trace, {})),
            title="custom <title>",
        )
        assert "<title>custom &lt;title&gt;</title>" in page

    def test_spans_only_profile_renders(self):
        # An unsampled run saves no series lines; its page still renders.
        result = run_cmeans(sample_interval=None)
        loaded = loads_profile(profile_jsonl(result.trace, {}))
        assert loaded.bank is None
        page = render_dashboard(loaded)
        assert "<h2>Phase timeline</h2>" in page

    def test_host_section_renders_for_selfprofiled_run(self):
        result = run_cmeans(sample_interval=1e-3, selfprof=True)
        page = render_dashboard(loads_profile(
            profile_jsonl(result.trace, {}, host=result.selfprofile)))
        assert "<h2>Host profile</h2>" in page
        assert "events/sec" in page
        # the subsystem share table lists the engine section
        assert "engine" in page

    def test_no_host_section_without_selfprof(self):
        # A v2 profile without the host_profile line renders exactly the
        # page a v1 reader produced — no host section, byte-identically.
        result = run_cmeans(sample_interval=1e-3)
        page = render_dashboard(loads_profile(
            profile_jsonl(result.trace, {})))
        assert "<h2>Host profile</h2>" not in page


class TestDashboardCLI:
    RUN = [
        "trace", "export", "--app", "cmeans", "--size", "600",
        "--nodes", "2", "--iterations", "2", "--format", "profile",
    ]

    def _export(self, tmp_path, name="run.profile.jsonl"):
        target = tmp_path / name
        assert main(self.RUN + ["--out", str(target)]) == 0
        return target

    def test_profile_export_format(self, capsys, tmp_path):
        target = self._export(tmp_path)
        capsys.readouterr()
        lines = target.read_text().splitlines()
        head = json.loads(lines[0])
        assert head["profile_meta"]["app"] == "cmeans"
        kinds = {
            "meta" if "profile_meta" in obj
            else "span" if "span_id" in obj
            else "series"
            for obj in map(json.loads, lines)
        }
        assert kinds == {"meta", "span", "series"}

    def test_dashboard_from_file(self, capsys, tmp_path):
        target = self._export(tmp_path)
        assert main(["dashboard", str(target)]) == 0
        out = capsys.readouterr().out
        html = tmp_path / "run.dashboard.html"
        assert html.exists()
        assert str(html) in out
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_dashboard_from_directory(self, capsys, tmp_path):
        self._export(tmp_path, "a.profile.jsonl")
        self._export(tmp_path, "b.profile.jsonl")
        assert main(["dashboard", str(tmp_path)]) == 0
        assert (tmp_path / "a.dashboard.html").exists()
        assert (tmp_path / "b.dashboard.html").exists()

    def test_dashboard_to_stdout(self, capsys, tmp_path):
        target = self._export(tmp_path)
        capsys.readouterr()
        assert main(["dashboard", str(target), "--out", "-"]) == 0
        assert capsys.readouterr().out.startswith("<!DOCTYPE html>")

    def test_out_with_multiple_inputs_rejected(self, tmp_path):
        a = self._export(tmp_path, "a.profile.jsonl")
        b = self._export(tmp_path, "b.profile.jsonl")
        with pytest.raises(SystemExit):
            main(["dashboard", str(a), str(b), "--out", "x.html"])

    def test_missing_profile_exits(self):
        with pytest.raises(SystemExit):
            main(["dashboard", "does-not-exist.profile.jsonl"])

    def test_empty_directory_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["dashboard", str(tmp_path)])

    def test_run_dashboard_out_matches_saved_render(self, capsys, tmp_path):
        # The tentpole acceptance gate: rendering the saved profile must
        # be byte-identical to what the live run wrote.
        shared = [
            "--app", "cmeans", "--size", "600", "--nodes", "2",
            "--iterations", "2",
        ]
        live = tmp_path / "live.html"
        assert main(["run", *shared, "--dashboard-out", str(live)]) == 0
        profile = tmp_path / "saved.profile.jsonl"
        assert main([
            "trace", "export", *shared, "--format", "profile",
            "--out", str(profile),
        ]) == 0
        saved = tmp_path / "saved.html"
        assert main(["dashboard", str(profile), "--out", str(saved)]) == 0
        capsys.readouterr()
        assert live.read_bytes() == saved.read_bytes()


class TestRunSamplingFlags:
    SHARED = [
        "run", "--app", "cmeans", "--size", "600", "--nodes", "2",
        "--iterations", "2", "--json",
    ]

    def _payload(self, capsys, extra=()):
        assert main(self.SHARED + list(extra)) == 0
        return json.loads(capsys.readouterr().out)

    def test_json_reports_sampling_and_alerts(self, capsys):
        payload = self._payload(capsys)
        assert payload["sampling"]["samples"] > 0
        assert payload["sampling"]["interval_s"] == pytest.approx(1e-3)
        assert payload["alerts"] == []  # healthy run stays silent

    def test_no_sample_disables_sampler(self, capsys):
        payload = self._payload(capsys, ["--no-sample"])
        assert payload["sampling"]["samples"] == 0
        assert payload["sampling"]["interval_s"] is None

    def test_sample_interval_override(self, capsys):
        fine = self._payload(capsys, ["--sample-interval", "5e-4"])
        coarse = self._payload(capsys, ["--sample-interval", "2e-3"])
        assert fine["sampling"]["interval_s"] == pytest.approx(5e-4)
        assert fine["sampling"]["samples"] > coarse["sampling"]["samples"]

    def test_sampling_never_perturbs_the_schedule(self, capsys):
        sampled = self._payload(capsys)
        unsampled = self._payload(capsys, ["--no-sample"])
        assert sampled["makespan_s"] == unsampled["makespan_s"]
        assert (sampled["sampling"]["engine_events"]
                == unsampled["sampling"]["engine_events"])

    def test_faulted_json_reports_alert(self, capsys):
        # Alert gate: 4-rank GMM under a 3x network degradation window.
        # The sampled link-model ratio sustains ~3x over the alpha/beta
        # model and must fire link-over-utilization at severity
        # critical; a fixed fault seed always yields the same alerts,
        # so a missing or relabelled alert is a regression in the
        # sampler, the derived probes or the rule engine.
        assert main([
            "run", "--app", "gmm", "--size", "1500", "--nodes", "4",
            "--iterations", "4",
            "--faults", "net_slow@*:factor=3,t0=0,t1=1",
            "--fault-seed", "7", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        rules = {a["rule"] for a in payload["alerts"]}
        assert "link-over-utilization" in rules
        link = [a for a in payload["alerts"]
                if a["rule"] == "link-over-utilization"]
        assert all(a["severity"] == "critical" for a in link)
        assert payload["sampling"]["samples"] > 0


def _canned_host():
    return HostProfile.from_dict({
        "schema_version": 1,
        "wall_s": 0.25,
        "meta": {"makespan_s": 0.05, "engine_events": 1200},
        "tree": {"name": "run", "calls": 1, "inclusive_s": 0.25, "children": [
            {"name": "engine:resume:cpu-map", "calls": 40, "inclusive_s": 0.1,
             "children": [{"name": "kernel:cmeans", "calls": 40,
                           "inclusive_s": 0.06}]},
            {"name": "obs:sample", "calls": 12, "inclusive_s": 0.02},
            {"name": "comm:<send>", "calls": 7, "inclusive_s": 0.03},
        ]},
    })


def _canned_log():
    def rec(seq, t, level, logger, message, rank=None, span_id=None, **attrs):
        return LogRecord(seq=seq, t=t, level=level, logger=logger,
                         message=message, rank=rank, span_id=span_id,
                         attrs=tuple(sorted(attrs.items())))

    records = [
        rec(0, 0.001, "debug", "engine", "start"),
        rec(1, 0.004, "info", "sched", "block <0> done", rank=1, span_id=3,
            iteration="0", device="gpu"),
        rec(2, 0.02, "error", "faults", "gpu_kill node 0 & rank 0", rank=0),
    ]
    dump = FlightDump(trigger="fault", cause="gpu-kill node 0", t=0.02,
                      records=tuple(records[1:]))
    return EventLog.from_profile(
        {"level": "debug", "ring_size": 16, "emitted": 5}, records, [dump]
    )


class TestTableSectionBytes:
    """The host-profile and event-log sections, flight-dump table
    included, pinned byte for byte: no run golden renders them."""

    def page(self, **parts):
        return render_dashboard(LoadedProfile(
            tracer=SpanTracer(), meta={"app": "canned", "makespan_s": 0.05},
            **parts,
        ))

    def test_host_profile_section(self):
        page = self.page(host=_canned_host())
        assert "<h2>Host profile</h2>" in page
        assert hashlib.sha256(page.encode("utf-8")).hexdigest() == (
            "72b1eee36c7450d6d095bec0aa6b390fb43794119757648ed3fc0ed2af17ac3b"
        )

    def test_event_log_and_flight_dump_tables(self):
        page = self.page(log=_canned_log())
        assert "<details><summary>dump 0:" in page
        assert hashlib.sha256(page.encode("utf-8")).hexdigest() == (
            "605bb46deea11a68cb93966d5338bf500116c4b4187772d01944f2dab4809696"
        )
