"""Windowed aggregators of a sampled series, read off its ``window``.

The alert rules (:mod:`repro.obs.rules`) evaluate every signal in one
pass per series; these functions rescan the whole window at each
instant instead, which makes them the brute-force oracle that pass is
checked against (``tests/obs/test_rules.py``).  They take anything
with a ``window(t0, t1)`` method: a :class:`~repro.obs.timeseries.Series`
or the per-point store of the rules tests.  ``Series`` itself keeps only
``mean`` and ``vmax``, which the autoscaler reads.
"""

from __future__ import annotations

from math import inf

from repro.obs.timeseries import sorted_quantile


def value(series, at):
    """Latest sampled value at or before *at* (None before data)."""
    pts = series.window(-inf, at)
    return pts[-1][1] if pts else None


def increase(series, t0, t1):
    """Last minus first sampled value in ``[t0, t1]`` (for counters)."""
    pts = series.window(t0, t1)
    if len(pts) < 2:
        return None
    return pts[-1][1] - pts[0][1]


def rate(series, t0, t1):
    """Per-second increase over the window, using the sample times
    (None with fewer than two samples or zero elapsed)."""
    pts = series.window(t0, t1)
    if len(pts) < 2:
        return None
    dt = pts[-1][0] - pts[0][0]
    if dt <= 0.0:
        return None
    return (pts[-1][1] - pts[0][1]) / dt


def vmin(series, t0, t1):
    return min((v for _, v in series.window(t0, t1)), default=None)


def quantile(series, q, t0, t1):
    """Interpolated *q*-quantile of the sampled values in the window."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    return sorted_quantile(sorted(v for _, v in series.window(t0, t1)), q)


def series_of(bank, name, **labels):
    """The series of *bank* with exactly this name and label set."""
    want = {k: str(v) for k, v in labels.items()}
    return next(
        (s for s in bank if s.name == name and s.labels == want), None
    )
