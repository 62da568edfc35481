"""Benchmark-suite configuration: echo saved tables into the terminal."""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import _harness
from _harness import RESULTS_DIR


def pytest_addoption(parser):
    parser.addoption(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="directory to save benchmark runs as profile JSONL "
             "(BENCH_*.json companions); omit to skip profiles",
    )


def pytest_configure(config):
    out = config.getoption("--profile-out", default=None)
    if out is not None:
        _harness.PROFILE_OUT = pathlib.Path(out)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """After the run, replay every regenerated table into the report so
    ``pytest benchmarks/ --benchmark-only`` shows them without ``-s``."""
    if not RESULTS_DIR.exists():
        return
    files = sorted(RESULTS_DIR.glob("*.txt"))
    if not files:
        return
    terminalreporter.section("paper tables/figures regenerated this run")
    for path in files:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {path.stem} ---")
        for line in path.read_text().splitlines():
            terminalreporter.write_line(line)
