"""Self-contained HTML run dashboard: sparklines, alerts, phase gantt.

:func:`render_dashboard` turns a :class:`~repro.obs.profile.LoadedProfile`
into one standalone HTML file — inline CSS, inline SVG, zero external
assets, zero scripts — so it can be archived as a CI artifact, attached
to a bug report, or opened from a tarball years later and still render.

Determinism contract: the output is a pure function of the profile
content.  Ordering is sorted everywhere (series by (name, labels),
alerts by (start, rule), ranks numerically), colors are assigned by
CRC-32 of the stable key (never Python's randomized ``hash``), floats
are formatted through one fixed helper.  Rendering the saved JSONL
profile of a run therefore yields byte-identical HTML to rendering the
live run — the property ``repro dashboard`` / ``run --dashboard-out``
tests pin.
"""

from __future__ import annotations

import html
import json
import zlib
from typing import Any, Iterable, Sequence

from repro.obs.profile import LoadedProfile
from repro.obs.rules import alerts_from_tracer
from repro.obs.timeseries import Series

__all__ = ["render_dashboard"]

#: qualitative palette (colorbrewer Set2 + Dark2 picks) — indexed by
#: CRC-32 of the series/phase name so colors are stable across runs
_PALETTE = (
    "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3", "#a6d854", "#ffd92f",
    "#e5c494", "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e",
)

_SEVERITY_COLOR = {"critical": "#d62728", "warning": "#e6a817"}

_CSS = """
body { font: 13px/1.45 system-ui, sans-serif; margin: 0; padding: 1.2em 2em;
       color: #222; background: #fafafa; }
h1 { font-size: 1.35em; margin: 0 0 .2em; }
h2 { font-size: 1.05em; margin: 1.6em 0 .5em; border-bottom: 1px solid #ddd;
     padding-bottom: .25em; }
h3 { font-size: .95em; margin: 1.1em 0 .3em; color: #444; }
table { border-collapse: collapse; margin: .4em 0; }
th, td { padding: .22em .7em; text-align: left; border-bottom: 1px solid #e4e4e4;
         font-size: .92em; }
th { color: #666; font-weight: 600; }
.meta { color: #666; margin-bottom: .8em; }
.meta code { background: #efefef; padding: 0 .3em; border-radius: 3px; }
.cards { display: flex; flex-wrap: wrap; gap: 10px; }
.card { background: #fff; border: 1px solid #e2e2e2; border-radius: 4px;
        padding: 6px 9px; width: 240px; }
.card .nm { font-size: .82em; color: #333; word-break: break-all; }
.card .lv { font-size: .8em; color: #888; }
.sev { display: inline-block; padding: 0 .45em; border-radius: 3px;
       color: #fff; font-size: .85em; }
.ok { color: #2a7d2a; font-weight: 600; }
svg { display: block; }
.lane text { font-size: 9px; fill: #555; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float) -> str:
    """The one float formatter: short, stable, locale-free."""
    return f"{value:.6g}"


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def _color(key: str) -> str:
    return _PALETTE[zlib.crc32(key.encode("utf-8")) % len(_PALETTE)]


def _labels_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Shared pieces: sparklines, lane strips, tables
# ---------------------------------------------------------------------------


def _sparkline(
    series: Series, runs: list[tuple[int, int, float]],
    tail: list[tuple[float, float]], vmin: float, vmax: float,
    grid_xs: dict[tuple, list[str]], width: int = 220, height: int = 42,
) -> str:
    """One series (its grid *runs* and off-grid *tail*) as an SVG
    polyline, y-scaled to its own [*vmin*, *vmax*].  Each y is formatted
    once per run; the x strings of a grid are formatted once per render
    and shared (*grid_xs*) by every series sampled on the same instants."""
    t0, t1 = series.first_t, series.last_t
    if t0 is None:
        return f'<svg width="{width}" height="{height}"></svg>'
    tspan = (t1 - t0) or 1.0
    vspan = (vmax - vmin) or 1.0
    pad = 3
    coords = []
    if runs:
        interval = series.interval
        first, stop = runs[0][0], runs[-1][1]
        key = (interval, first, stop, t1, width)
        xs = grid_xs.get(key)
        if xs is None:
            xs = grid_xs[key] = [
                f"{pad + (k * interval - t0) / tspan * (width - 2 * pad):.1f},"
                for k in range(first, stop)
            ]
        for lo, hi, v in runs:
            y = f"{height - pad - (v - vmin) / vspan * (height - 2 * pad):.1f}"
            coords.extend([x + y for x in xs[lo - first:hi - first]])
    for t, v in tail:
        x = pad + (t - t0) / tspan * (width - 2 * pad)
        y = height - pad - (v - vmin) / vspan * (height - 2 * pad)
        coords.append(f"{x:.1f},{y:.1f}")
    color = _color(series.name)
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline fill="none" stroke="{color}" stroke-width="1.3" '
        f'points="{" ".join(coords)}"/></svg>'
    )


def _lanes(
    lanes: list[tuple[str, list[tuple[float, float, str, str]]]],
    makespan: float, lane_h: int, label_w: int, width: int = 840,
) -> str:
    """An SVG strip of labelled lanes, one per ``(label, bars)`` entry of
    *lanes*; each bar is a ``(start, end, color, title)`` interval drawn
    to scale against *makespan*, at least one pixel wide."""
    gap = 4
    span = makespan or 1.0
    height = len(lanes) * (lane_h + gap) + gap
    parts = [
        f'<svg class="lane" width="{label_w + width}" height="{height}" '
        f'viewBox="0 0 {label_w + width} {height}">'
    ]
    for i, (label, bars) in enumerate(lanes):
        y = gap + i * (lane_h + gap)
        parts.append(  # the label's baseline sits 4 px below mid-lane
            f'<text x="0" y="{y + lane_h // 2 + 4}">{_esc(label)}</text>'
            f'<g transform="translate({label_w},0)">'
        )
        for start, end, color, title in bars:
            parts.append(
                f'<rect x="{start / span * width:.1f}" y="{y}" '
                f'width="{max((end - start) / span * width, 1.0):.1f}" '
                f'height="{lane_h}" fill="{color}">'
                f"<title>{_esc(title)}</title></rect>"
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "".join(parts)


def _table(heads: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """An HTML table under the column *heads*.  A cell is its inner HTML
    (already escaped), or an ``(attributes, inner HTML)`` pair."""
    out = ["<table><thead><tr>", *[f"<th>{h}</th>" for h in heads],
           "</tr></thead><tbody>"]
    for row in rows:
        out.append("<tr>")
        for cell in row:
            out.append(f"<td {cell[0]}>{cell[1]}</td>" if type(cell) is tuple
                       else f"<td>{cell}</td>")
        out.append("</tr>")
    out.append("</tbody></table>")
    return "".join(out)


def _phase_gantt(profile: LoadedProfile) -> str:
    """Per-rank strip of the phase spans (category ``phase``)."""
    by_rank: dict[int, list] = {}
    for span in profile.tracer.find(category="phase"):
        if span.end is None:
            continue
        by_rank.setdefault(int(span.attrs.get("rank", 0)), []).append(span)
    if not by_rank:
        return "<p>(no phase spans in this profile)</p>"
    lanes = []
    seen: dict[str, None] = {}  # phase names in first-appearance order
    for rank in sorted(by_rank):
        bars = []
        for span in sorted(by_rank[rank], key=lambda s: (s.start, s.name)):
            seen.setdefault(span.name)
            bars.append((
                span.start, span.end, _color(span.name),
                f"{span.name} it={span.attrs.get('iteration', '?')} "
                f"[{_fmt_ms(span.start)} - {_fmt_ms(span.end)}]",
            ))
        lanes.append((f"rank {rank}", bars))
    legend = " ".join(
        f'<span class="sev" style="background:{_color(n)}">{_esc(n)}</span>'
        for n in seen
    )
    return (_lanes(lanes, profile.makespan, lane_h=16, label_w=58)
            + f"<p>{legend}</p>")


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def _meta_section(profile: LoadedProfile) -> str:
    meta = profile.meta
    bits = []
    for key in sorted(meta):
        value = meta[key]
        if isinstance(value, float):
            value = _fmt(value)
        elif isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        bits.append(f"{_esc(key)}=<code>{_esc(value)}</code>")
    return f'<p class="meta">{" ".join(bits)}</p>'


def _alerts_section(alerts: list[dict[str, Any]], makespan: float) -> str:
    if not alerts:
        return '<p class="ok">no alert rules fired</p>'
    lanes, rows = [], []
    for alert in alerts:
        color = _SEVERITY_COLOR.get(alert["severity"], "#888")
        end = alert["end"] if alert["end"] is not None else makespan
        labels = _labels_text(alert["labels"])
        peak = _fmt(alert["peak"] or 0.0)
        lanes.append((f"{alert['rule']}{labels}"[:34], [(
            alert["start"], end, color,
            f"{alert['rule']} {alert['severity']} "
            f"[{_fmt_ms(alert['start'])} - {_fmt_ms(end)}] peak {peak}",
        )]))
        rows.append((
            f'<span class="sev" style="background:{color}">'
            f"{_esc(alert['severity'])}</span>",
            _esc(alert["rule"]),
            f"<code>{_esc(alert['expr'])}</code>",
            _esc(labels or "-"),
            _fmt_ms(alert["start"]),
            _fmt_ms(end),
            f"{peak} / {_fmt(alert['threshold'] or 0.0)}",
            "yes" if alert["resolved"] else "no",
        ))
    return _lanes(lanes, makespan, lane_h=14, label_w=190) + _table(
        ("severity", "rule", "expr", "labels", "start", "end",
         "peak / threshold", "resolved"), rows,
    )


def _membership_section(profile: LoadedProfile) -> str:
    from repro.obs.analyze import membership_from_tracer

    events = membership_from_tracer(profile.tracer)
    if not events:
        return '<p class="ok">static membership (no elastic transitions)</p>'
    rows = []
    for m in events:
        members = str(m["members"])
        rows.append((
            _fmt_ms(m["time"]),
            _esc(str(m["epoch"])),
            _esc(m["cause"]),
            _esc(str(m["node"])),
            len(members.split(",")) if members else 0,
            _esc(str(m["detail"]) or "-"),
        ))
    return _table(
        ("time", "epoch", "cause", "node", "live ranks", "detail"), rows
    )


def _series_section(profile: LoadedProfile) -> str:
    bank = profile.bank
    if bank is None or len(bank) == 0:
        return (
            "<p>(no sampled series in this profile — run with sampling "
            "enabled and export the JSONL profile)</p>"
        )
    groups: dict[str, list[Series]] = {}
    for series in bank:  # sorted (name, labels)
        groups.setdefault(series.name, []).append(series)
    parts = []
    grid_xs: dict[tuple, list[str]] = {}
    for name in sorted(groups):
        parts.append(f"<h3><code>{_esc(name)}</code></h3>")
        cards = []
        for series in groups[name]:
            # One value per run: min/max/last over the runs equal those
            # over every sample (a repeat never replaces a min or max).
            runs, tail = series.runs(), series.tail
            vs = [v for _, _, v in runs]
            vs.extend(v for _, v in tail)
            last = vs[-1] if vs else 0.0
            vmin = min(vs) if vs else 0.0
            vmax = max(vs) if vs else 0.0
            cards.append(
                '<div class="card">'
                f'<div class="nm">{_esc(_labels_text(series.labels) or "(no labels)")}</div>'
                + _sparkline(series, runs, tail, vmin, vmax, grid_xs)
                + f'<div class="lv">last {_fmt(last)} &middot; '
                f"min {_fmt(vmin)} &middot; max {_fmt(vmax)} &middot; "
                f"{len(series)} pts"
                + (f" &middot; {series.dropped} dropped"
                   if series.dropped else "")
                + "</div></div>"
            )
        parts.append(f'<div class="cards">{"".join(cards)}</div>')
    return "".join(parts)


def _host_section(host) -> str:
    """The schema-v2 host self-profile: subsystem shares + hotspots."""
    shares = host.section_shares()
    total = sum(shares.values()) or 1.0
    share_table = _table(("subsystem", "exclusive", "share"), [
        (f"<code>{_esc(section)}</code>", _fmt_ms(seconds),
         f"{_fmt(seconds / total * 100.0)}%")
        for section, seconds in shares.items()
    ])
    hot_table = _table(("scope path", "calls", "exclusive", "inclusive"), [
        (f"<code>{_esc(row['path'])}</code>", row["calls"],
         _fmt_ms(row["exclusive_s"]), _fmt_ms(row["inclusive_s"]))
        for row in host.top_exclusive(10)
    ])
    header = (
        f"<p>host wall {_fmt(host.wall_s)} s &middot; "
        f"{_fmt(host.sim_per_wall)} sim-s/wall-s &middot; "
        f"{_fmt(host.events_per_sec)} events/sec</p>"
    )
    return (header + share_table
            + "<h3>Top exclusive hotspots</h3>" + hot_table)


_LEVEL_COLOR = {
    "debug": "#888",
    "info": "#1f77b4",
    "warning": "#e6a817",
    "error": "#d62728",
}


def _log_row(r) -> tuple:
    """The table cells of one log record."""
    labels = _esc(" ".join(f"{k}={v}" for k, v in r.attrs))
    return (
        _fmt_ms(r.t),
        (f'style="color:{_LEVEL_COLOR.get(r.level, "#888")}"', _esc(r.level)),
        f"<code>{_esc(r.logger)}</code>",
        "" if r.rank is None else r.rank,
        "" if r.span_id is None else r.span_id,
        _esc(r.message)
        + (f' <span class="meta">{labels}</span>' if labels else ""),
    )


def _log_section(profile: LoadedProfile) -> str:
    """Schema v3 event log: a record timeline strip plus the tail table
    and one collapsible block per flight-recorder dump."""
    log = profile.log
    makespan = profile.makespan or 1.0
    width, height = 900, 46
    marks = []
    records = log.records()
    for record in records:
        x = min(record.t / makespan, 1.0) * (width - 2) + 1
        color = _LEVEL_COLOR.get(record.level, "#888")
        tip = (
            f"t={_fmt_ms(record.t)} [{record.level}] "
            f"{record.logger}: {record.message}"
        )
        marks.append(
            f'<line x1="{_fmt(x)}" y1="6" x2="{_fmt(x)}" y2="40" '
            f'stroke="{color}" stroke-width="2">'
            f"<title>{_esc(tip)}</title></line>"
        )
    for dump in log.dumps:
        x = min(dump.t / makespan, 1.0) * (width - 2) + 1
        marks.append(
            f'<circle cx="{_fmt(x)}" cy="23" r="5" fill="none" '
            f'stroke="#d62728" stroke-width="2">'
            f"<title>{_esc(f'flight dump [{dump.trigger}] {dump.cause} at ' + _fmt_ms(dump.t))}</title></circle>"
        )
    timeline = (
        f'<svg width="{width}" height="{height}" role="img">'
        f'<rect x="0" y="0" width="{width}" height="{height}" '
        f'fill="#f7f7f7"/>' + "".join(marks) + "</svg>"
    )
    meta = log.meta_dict()
    header = (
        f"<p>level <code>{_esc(str(meta['level']))}</code> &middot; "
        f"{meta['emitted']} emitted &middot; {len(records)} retained "
        f"&middot; {len(log.dumps)} flight dump(s)</p>"
    )

    def table(records) -> str:
        return _table(
            ("t", "level", "logger", "rank", "span", "message"),
            map(_log_row, records),
        )

    parts = [header, timeline, "<h3>Retained tail</h3>", table(records)]
    if log.dumps:
        parts.append("<h3>Flight recorder</h3>")
        for i, dump in enumerate(log.dumps):
            parts.append(
                "<details><summary>"
                f"dump {i}: <code>{_esc(dump.trigger)}</code> "
                f"{_esc(dump.cause)} at {_fmt_ms(dump.t)} "
                f"({len(dump.records)} records)</summary>"
                + table(dump.records) + "</details>"
            )
    return "".join(parts)


def render_dashboard(profile: LoadedProfile, title: str | None = None) -> str:
    """Render *profile* into one standalone deterministic HTML page."""
    if title is None:
        app = profile.meta.get("app", "run")
        policy = profile.meta.get("policy")
        title = f"PRS dashboard: {app}" + (f" [{policy}]" if policy else "")
    n_series = len(profile.bank) if profile.bank is not None else 0
    alerts = alerts_from_tracer(profile.tracer)
    summary = (
        f"makespan {_fmt_ms(profile.makespan)} &middot; "
        f"{len(profile.tracer)} spans &middot; {n_series} series &middot; "
        f"{len(alerts)} alert(s)"
    )
    host = profile.host
    host_html = ""
    if host is not None:
        # Schema v2 only: v1 profiles (and non-selfprofiled v2 runs)
        # carry no host line, keeping their rendering byte-identical to
        # the pre-v2 dashboard.
        summary += (
            f" &middot; host wall {_fmt(host.wall_s)} s &middot; "
            f"{_fmt(host.events_per_sec)} events/sec"
        )
        host_html = "\n<h2>Host profile</h2>\n" + _host_section(host)
    log_html = ""
    if profile.log is not None:
        # Schema v3 only: profiles without --log-level carry no log
        # lines, keeping their rendering byte-identical to v2.
        summary += (
            f" &middot; {profile.log.emitted} log record(s) &middot; "
            f"{len(profile.log.dumps)} flight dump(s)"
        )
        log_html = "\n<h2>Event log</h2>\n" + _log_section(profile)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n<body>\n"
        f"<h1>{_esc(title)}</h1>\n"
        f'<p class="meta">{summary}</p>\n'
        + _meta_section(profile)
        + "\n<h2>Alerts</h2>\n" + _alerts_section(alerts, profile.makespan)
        + "\n<h2>Membership</h2>\n" + _membership_section(profile)
        + "\n<h2>Phase timeline</h2>\n" + _phase_gantt(profile)
        + "\n<h2>Sampled series</h2>\n" + _series_section(profile)
        + host_html
        + log_html
        + "\n</body></html>\n"
    )
