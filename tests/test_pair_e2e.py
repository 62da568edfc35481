"""The paired e2e script's statistics, on canned results (no runs)."""

import json

import pytest

from benchmarks.pair_e2e import (
    summarize,
    table_header,
    table_row,
    trajectory_line,
)

PARENT = [0.0450, 0.0440, 0.0445, 0.0442, 0.0460, 0.0441, 0.0443, 0.0444,
          0.0447, 0.0449]


def test_lower_is_better_wins_and_claim():
    change = [p - 0.0025 for p in PARENT]
    s = summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["parent"] == pytest.approx(0.04445)
    assert s["change"] == pytest.approx(0.04195)
    # inclusive quartiles of the parent runs
    assert (s["q1"], s["q3"]) == pytest.approx((0.044225, 0.044850))
    assert s["rel"] == pytest.approx(-0.0025 / 0.04445)
    assert s["claim"]


def test_claim_needs_nine_wins_and_a_gap_wider_than_the_iqr():
    # nine wins, but the gap (0.0002) is inside the parent IQR (0.000625)
    change = [p - 0.0002 for p in PARENT]
    change[0] = PARENT[0] + 0.001
    s = summarize(PARENT, change, "lower")
    assert s["wins"] == 9 and not s["claim"]
    # a wide gap, but only eight wins
    change = [p - 0.003 for p in PARENT]
    change[0] = change[1] = 0.05
    s = summarize(PARENT, change, "lower")
    assert s["wins"] == 8 and not s["claim"]


def test_higher_is_better_and_ties():
    s = summarize([1.0, 1.0, 1.0], [1.0, 1.1, 0.9], "higher")
    assert s["wins"] == 1  # a tie wins nothing
    assert s["rel"] == 0.0 and not s["claim"]


def test_bad_input_fails_loud():
    with pytest.raises(ValueError):
        summarize([1.0], [1.0, 2.0], "lower")
    with pytest.raises(ValueError):
        summarize([1.0], [1.0], "faster")


def test_table_row_and_trajectory_line():
    stats = {
        "setup_s": summarize([1.0, 1.0], [0.99, 0.99], "lower"),
        "op_s.p50": summarize([0.05, 0.05], [0.04, 0.04], "lower"),
        "peak_mem_mb": summarize([10.0, 10.0], [10.1, 10.1], "lower"),
    }
    row = table_row("gemv-dispatch", stats)
    assert row == (
        "| gemv-dispatch | 2 | 0.0500 (0.0500–0.0500) → 0.0400 s, −20.0% "
        "| 2/2 (claim holds) | 1 → 0.99 (−1.0%), 2/2 (claim holds) "
        "| 10 → 10.1 (+1.0%), 0/2 |"
    )
    header = table_header(list(stats))
    assert header.splitlines()[0].count("|") == row.count("|")
    report = {"seed": 5, "seconds": 20, "host": {"python": "3.11"},
              "correct": True, "workloads": {"gemv-dispatch": {"metrics": {}}}}
    line = json.loads(trajectory_line({"gemv-dispatch": report},
                                      {"gemv-dispatch": [5, 6, 7]}, "abc", "def"))
    assert line["commit"] == "abc" and line["parent"] == "def"
    assert line["pair_seeds"] == {"gemv-dispatch": [5, 7]}
    assert line["workloads"] == {"gemv-dispatch": {"metrics": {}}}
    assert line["seed"] == 5 and line["correct"] is True


def test_a_claim_on_a_metric_other_than_op_s():
    stats = {
        "op_s.p50": summarize(PARENT, PARENT, "lower"),
        "peak_mem_mb": summarize([18.7] * 9 + [18.6], [1.9] * 10, "lower"),
    }
    row = table_row("gemv-dispatch", stats)
    assert "| 0/10 |" in row  # ties on op_s.p50 win nothing
    assert row.endswith("| 18.7 → 1.9 (−89.8%), 10/10 (claim holds) |")
