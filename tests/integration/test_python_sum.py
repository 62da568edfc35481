"""Fingerprinted values do not depend on the Python version's ``sum()``.

Python 3.12's builtin ``sum()`` adds floats with Neumaier compensation;
3.10 and 3.11 add them in order, and every golden value in the repo was
generated on 3.11.  The folds that feed a fingerprint therefore fold in
order explicitly (``functools.reduce(operator.add, values, 0)``).

Each test below installs :func:`compensated_sum`, an emulation of
3.12's ``sum()``, into the globals of every ``repro`` module, reruns
golden scenarios and requires the committed values: the series digests
of the ``observe`` and ``chaos`` runs, three fingerprint rows (a
C-means and a GMM reduce, each with its critical-path sums) and the
autoscaler's decision inputs on an autoscaled GMM run.  A unit case
pins the busy-union merge of :class:`repro.obs.metrics.IntervalUnion`.
"""

from __future__ import annotations

import json
import math
import random
import sys

import pytest

from repro.obs.metrics import IntervalUnion
from tests.integration.test_fingerprints import fingerprint, load_golden
from tests.obs.test_series_golden import GOLDEN, run, series_digest
from tests.obs.test_timeseries import _run_e2e


def compensated_sum(iterable, start=0):
    """Python 3.12's builtin ``sum()``: ints added exactly, then exact
    floats (and ints that fit a C long) with Neumaier compensation,
    anything else by ``+``."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if type(item) is int and -(2**63) <= item < 2**63:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


@pytest.fixture
def compensated(monkeypatch):
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_emulation_compensates():
    values = [0.1] * 10
    assert compensated_sum(values) == 1.0
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert compensated_sum([1, 2, True]) == 4
    if sys.version_info < (3, 12):
        assert sum(values) != 1.0  # in-order addition: the last bit moves


@pytest.mark.skipif(sys.version_info < (3, 12), reason="needs 3.12's sum()")
def test_emulation_matches_the_builtin():
    rng = random.Random(7)
    for _ in range(200):
        values = [rng.choice([rng.uniform(-1e3, 1e3), rng.randint(-9, 9), 0.1])
                  for _ in range(rng.randint(0, 40))]
        assert repr(compensated_sum(values)) == repr(sum(values))
        assert repr(compensated_sum(values, 0.5)) == repr(sum(values, 0.5))


@pytest.mark.parametrize("name", ["observe", "chaos"])
def test_series_match_golden(compensated, name):
    _, result = run.__wrapped__(name)
    digest = series_digest(result.trace.sampler.bank)
    assert digest == json.loads(GOLDEN.read_text())[name]["series"]


@pytest.mark.parametrize("name", [
    "cmeans-static/fault-free",
    "gmm-multirank/fault-free",
    "cmeans-dynamic/msg-drop",
])
def test_fingerprint_matches_golden(compensated, name):
    assert fingerprint.__wrapped__(name) == load_golden()[name]


def test_autoscale_decisions_match_golden(compensated):
    # each decision records the windowed means the autoscaler read
    result = _run_e2e("gmm-kernel+autoscale")
    decisions = [(r.kind, r.inputs) for r in result.trace.audit.records
                 if r.kind.startswith("autoscale-")]
    assert [(kind, {k: repr(v) for k, v in inputs.items()})
            for kind, inputs in decisions] == [
        ("autoscale-down", {
            "time": "0.034513180103846144",
            "imbalance": "1.9896953378332145",
            "busy_fraction": "0.27801767517118153",
            "link_utilization": "0.36113999999999963",
        }),
        ("autoscale-down", {
            "time": "0.06383846019423077",
            "imbalance": "3.173774893856506",
            "busy_fraction": "0.22573309593859828",
            "link_utilization": "0.3121824999999997",
        }),
    ]


def test_interval_union_merge_adds_in_order(monkeypatch):
    from repro.obs import metrics

    monkeypatch.setattr(metrics, "sum", compensated_sum, raising=False)
    union = IntervalUnion()
    for start, end in [(0.000213, 0.003133), (0.003454, 0.004851),
                       (0.007034, 0.007482)]:
        union.add(start, end)
    # the three merged lengths add up in order to 0.004764999999999999,
    # and with compensation to 0.004765
    assert repr(union.add(0.0, 0.02)) == "0.015235000000000002"
