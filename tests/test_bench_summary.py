"""Tests for tools/bench_summary.py (deterministic per-figure counters)."""

import importlib.util
import json
import pathlib
import sys

import pytest

_TOOL = pathlib.Path(__file__).parent.parent / "tools" / "bench_summary.py"


@pytest.fixture(scope="module")
def bench_summary():
    spec = importlib.util.spec_from_file_location("bench_summary", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_summary"] = module
    spec.loader.exec_module(module)
    return module


def test_writes_deterministic_counters_for_one_figure(bench_summary, tmp_path):
    output = tmp_path / "BENCH_summary.json"
    code = bench_summary.main(
        ["--figures", "figure-4", "--scale", "smoke", "--output", str(output)]
    )
    assert code == 0
    payload = json.loads(output.read_text())
    assert payload["scale"] == "smoke"
    points = payload["figures"]["figure-4"]["points"]
    assert set(points) == {"commutativity", "recoverability"}
    point = points["recoverability"]["10"]
    for counter in (
        "completions", "blocks", "restarts", "cycle_checks", "aborts",
        "events_processed", "simulated_time",
    ):
        assert counter in point
    assert point["completions"] >= 150


def _deterministic(payload):
    """Everything except the host-dependent ``timing`` block."""
    return {key: value for key, value in payload.items() if key != "timing"}


def test_counters_are_reproducible(bench_summary, tmp_path):
    first = bench_summary.summarize(["figure-4"], "smoke")
    second = bench_summary.summarize(["figure-4"], "smoke")
    assert _deterministic(first) == _deterministic(second)


def test_timing_block_records_wall_clock_and_workers(bench_summary):
    payload = bench_summary.summarize(["figure-4"], "smoke", workers=1)
    timing = payload["timing"]
    assert timing["workers"] == 1
    assert set(timing["seconds"]) == {"figure-4"}
    assert timing["seconds"]["figure-4"] > 0
    assert timing["total_seconds"] == pytest.approx(
        sum(timing["seconds"].values()), abs=0.01
    )
    # The profiled reference run's wall-clock lands here (host-dependent),
    # keeping the profile block itself fully deterministic.
    assert timing["profile_wall_seconds"] > 0
    assert "wall_seconds" not in payload["profile"]


def test_parallel_counters_match_serial(bench_summary):
    serial = bench_summary.summarize(["figure-4"], "smoke", workers=1)
    parallel = bench_summary.summarize(["figure-4"], "smoke", workers=2)
    assert serial["figures"] == parallel["figures"]
    assert parallel["timing"]["workers"] == 2


def test_unknown_figure_is_rejected(bench_summary, tmp_path):
    with pytest.raises(SystemExit):
        bench_summary.main(
            ["--figures", "figure-99", "--output", str(tmp_path / "x.json")]
        )


def test_lint_summary_rides_along(bench_summary):
    lint = bench_summary.lint_summary()
    assert lint["total"] == 0
    assert set(lint["rule_counts"]) == {
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007",
        "REP008", "REP009",
    }
    assert all(count == 0 for count in lint["rule_counts"].values())
