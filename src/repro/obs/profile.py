"""Full-run JSONL profiles: the one format a run is saved in.

A profile holds a meta header, the spans, the sampled time-series
(:mod:`repro.obs.timeseries`) and, when they were on, the host
self-profile and the event log, so a saved run can be re-analyzed,
re-alerted, and rendered into the HTML dashboard byte-for-byte
identically to the live run.  ``repro run --profile-out`` and ``repro
trace export --format profile`` write the same bytes for the same
options.  The Chrome trace-event JSON of ``trace export --format
chrome`` is an export for Perfetto only; no reader loads it back.

Format: one JSON object per line, three line kinds distinguished by a
discriminating key —

* ``{"profile_meta": {...}}`` — exactly one, first line: schema
  version plus whatever run context the writer supplies (app, cluster,
  policy, makespan ...).  Writers must keep it free of wall-clock
  timestamps and absolute paths so identical runs serialize to
  identical bytes.
* ``{"span_id": ..., "name": ..., ...}`` — one per span
  (:meth:`repro.obs.spans.Span.to_dict`), in recording order.  Alert
  spans ride along like any other, so the rule firings of the live run
  survive the round-trip.
* ``{"series": ..., "labels": ..., "grid": ..., "k": [...], "v": [...],
  "tail": [...], "dropped": ...}`` — one per sampled series
  (:meth:`repro.obs.timeseries.Series.to_dict`), in sorted (name,
  labels) order.  Schema v4 stores each series as a step function:
  ``grid`` is ``{"interval": dt, "end": n}`` (null when the series has
  no grid samples), ``k`` the grid index where each run of equal values
  starts and ``v`` its value — grid index ``k`` holds time ``k * dt``,
  and the last run lasts up to ``end`` (exclusive) — and ``tail`` the
  ``[t, v]`` points off the grid that follow it (the end-state anchor
  the sampler writes at the makespan).  ``dropped`` counts samples the
  ring trimmed, grid and off-grid alike.  Up to v3 the line carried
  one ``t``/``v`` entry per sample instead of ``grid``/``k``/``tail``.
* ``{"host_profile": {...}}`` — at most one (schema v2): the host-side
  wall-clock self-profile (:meth:`repro.obs.selfprof.HostProfile.to_dict`)
  of a run executed with ``--selfprof``.  This is the single sanctioned
  exception to the no-wall-clock rule above — host timings are the
  *payload* here, and the line only appears when the user opts in, so
  default runs still serialize to identical bytes.
* ``{"log_meta": {...}}`` / ``{"log": {...}}`` / ``{"log_dump": {...}}``
  — schema v3: the structured event log of a run executed with
  ``--log-level`` (:mod:`repro.obs.log`).  ``log_meta`` appears at most
  once (level, ring size, emit count), then one ``log`` line per
  retained record in causal (seq) order, then one ``log_dump`` line per
  flight-recorder snapshot.  All three are absent without the opt-in,
  so default v3 profiles differ from v2 only in the version integer.

Version history: v1 = meta + spans + series; v2 adds the optional
``host_profile`` line; v3 adds the optional ``log_meta`` / ``log`` /
``log_dump`` line stream; v4 writes each series line as change points on
its sampling grid.  v1-v3 files load unchanged under the v4 reader (the
``host`` / ``log`` attributes are simply ``None`` where the file has no
such line, and a series line without ``grid`` is read point by point).

:func:`load_profile` is the one loader of every CLI reader of a saved
run: ``analyze``, ``dashboard``, ``selfprof`` and ``logs``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.log import EventLog, FlightDump, LogRecord
from repro.obs.selfprof import HostProfile
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import SeriesBank

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulate.trace import Trace

#: bump when a line kind changes shape; readers reject newer majors
#: (v2: optional ``host_profile`` line; v3: optional ``log_meta`` /
#: ``log`` / ``log_dump`` lines; v4: series lines as change points)
PROFILE_SCHEMA_VERSION = 4


def profile_jsonl(
    trace: "Trace",
    meta: dict[str, Any] | None = None,
    host: HostProfile | None = None,
) -> str:
    """Serialize a finished run's observability plane to profile JSONL.

    *meta* is embedded under ``profile_meta`` (schema version added);
    spans come from ``trace.tracer``, series from ``trace.sampler`` when
    one is attached (a sampling-disabled run simply has no series
    lines).  *host* — a :class:`~repro.obs.selfprof.HostProfile` from a
    selfprofiled run — appends the schema-v2 ``host_profile`` line.
    """
    header = {"schema_version": PROFILE_SCHEMA_VERSION}
    header.update(meta or {})
    lines = [json.dumps({"profile_meta": header}, sort_keys=True)]
    lines.extend(
        json.dumps(span.to_dict(), sort_keys=True)
        for span in trace.tracer.spans
    )
    if trace.sampler is not None:
        lines.extend(trace.sampler.bank.to_jsonl_lines())
    if host is not None:
        lines.append(
            json.dumps({"host_profile": host.to_dict()}, sort_keys=True)
        )
    log = trace.log
    if log.enabled:
        lines.append(
            json.dumps({"log_meta": log.meta_dict()}, sort_keys=True)
        )
        lines.extend(
            json.dumps({"log": record.to_dict()}, sort_keys=True)
            for record in log.records()
        )
        lines.extend(
            json.dumps({"log_dump": dump.to_dict()}, sort_keys=True)
            for dump in log.dumps
        )
    return "\n".join(lines) + "\n"


@dataclass
class LoadedProfile:
    """A deserialized profile: spans always, series/meta when present."""

    tracer: SpanTracer
    bank: SeriesBank | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    #: host-side self-profile (schema v2 ``host_profile`` line); None
    #: for v1 files and for runs that did not profile the host
    host: HostProfile | None = None
    #: structured event log (schema v3 ``log_meta``/``log``/``log_dump``
    #: lines); None for v1/v2 files and for runs without ``--log-level``
    log: EventLog | None = None

    @property
    def makespan(self) -> float:
        """Meta makespan when recorded, else the latest span end."""
        if "makespan_s" in self.meta:
            return float(self.meta["makespan_s"])
        return max(
            (s.end for s in self.tracer.spans if s.end is not None),
            default=0.0,
        )


def _tracer_from_span_dicts(payloads: list[dict[str, Any]]) -> SpanTracer:
    """Rebuild a tracer from :meth:`Span.to_dict` payloads, keeping the
    original span/parent ids."""
    tracer = SpanTracer()
    for p in payloads:
        tracer.record(
            p["name"],
            p["track"],
            p["start"],
            p["end"],
            category=p.get("category", ""),
            parent_id=p.get("parent_id"),
            attrs=p.get("attrs"),
            span_id=p.get("span_id"),
        )
    return tracer


def loads_profile(text: str) -> LoadedProfile:
    """Parse profile JSONL from a string."""
    if not text.strip():
        raise ValueError("empty profile")
    meta: dict[str, Any] = {}
    span_dicts: list[dict[str, Any]] = []
    series_dicts: list[dict[str, Any]] = []
    host: HostProfile | None = None
    log_meta: dict[str, Any] | None = None
    log_records: list[LogRecord] = []
    log_dumps: list[FlightDump] = []
    for i, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(f"a JSON {type(obj).__name__}, not an object")
        except ValueError as exc:  # json.JSONDecodeError included
            raise ValueError(f"profile line {i}: {exc}") from None
        if "profile_meta" in obj:
            meta = dict(obj["profile_meta"])
        elif "span_id" in obj:
            span_dicts.append(obj)
        elif "series" in obj:
            series_dicts.append(obj)
        elif "host_profile" in obj:
            host = HostProfile.from_dict(obj["host_profile"])
        elif "log_meta" in obj:
            log_meta = dict(obj["log_meta"])
        elif "log" in obj:
            log_records.append(LogRecord.from_dict(obj["log"]))
        elif "log_dump" in obj:
            log_dumps.append(FlightDump.from_dict(obj["log_dump"]))
        else:
            raise ValueError(
                f"profile line {i}: not a meta/span/series object "
                f"(keys: {sorted(obj)[:4]})"
            )
    version = int(meta.get("schema_version", PROFILE_SCHEMA_VERSION))
    if version > PROFILE_SCHEMA_VERSION:
        raise ValueError(
            f"profile schema v{version} is newer than this reader "
            f"(v{PROFILE_SCHEMA_VERSION})"
        )
    log: EventLog | None = None
    if log_meta is not None or log_records or log_dumps:
        log = EventLog.from_profile(log_meta or {}, log_records, log_dumps)
    return LoadedProfile(
        tracer=_tracer_from_span_dicts(span_dicts),
        bank=SeriesBank.from_dicts(series_dicts) if series_dicts else None,
        meta=meta,
        host=host,
        log=log,
    )


def load_profile(path: str) -> LoadedProfile:
    """Load a ``*.profile.jsonl`` file into a :class:`LoadedProfile`."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_profile(fh.read())
