"""Smoke test of the performance harness (``run.py --quick``, a few seconds).

It checks the harness, not the performance: the declared names and the
printed names agree, the trace accounts for (nearly) all of the time, and a
broken output check is reported as a failure instead of a number.
"""

import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
DECLARATION = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# Loaded by path under a name of its own: "run" is too generic to trust to
# whatever sys.path the collecting pytest happens to have.
_spec = importlib.util.spec_from_file_location("perf_run", HERE / "run.py")
perf_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_run)
perf_layers = perf_run.layers


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    output = tmp_path_factory.mktemp("perf") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--output", str(output)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout
    return done.stdout, json.loads(output.read_text())


def test_quick_run_prints_exactly_the_declared_names(quick):
    stdout, document = quick
    declared_workloads = {entry["name"] for entry in DECLARATION["workloads"]}
    units = {
        entry["name"]: entry["unit"]
        for entry in DECLARATION["end_to_end"] + DECLARATION["per_layer"]
    }
    units["failed_share"] = "share"
    assert len(DECLARATION["per_layer"]) == 4 * len(perf_layers.LAYERS) + 34
    assert all(NAME.fullmatch(name) for name in declared_workloads | set(units))

    printed = {}
    for line in stdout.splitlines():
        workload, metric, unit, value = line.split()
        assert units[metric] == unit
        float(value)
        printed.setdefault(workload, set()).add(metric)
    assert set(printed) == set(perf_run.workload_definitions.QUICK_WORKLOADS)
    assert set(printed) <= declared_workloads
    for metrics in printed.values():
        assert metrics == set(units)
    assert set(perf_run.workload_definitions.make_workloads()) == declared_workloads

    assert document["schema"] == perf_run.SCHEMA
    assert {"python", "implementation", "nproc", "cpu_model"} <= set(document["host"])
    assert set(document["load_1min"]) == {"start", "end"}


def test_quick_run_is_correct_and_the_trace_accounts_for_the_time(quick):
    _, document = quick
    for blocks in document["workloads"].values():
        assert all(block["correct"] and block["failed"] == 0 for block in blocks.values())
        traced = {name: entry["value"] for name, entry in blocks["per_layer"]["metrics"].items()}
        shares = [traced[f"{layer}.self_share"] for layer in perf_layers.LAYERS]
        assert traced["trace.other_share"] < 0.05
        assert sum(shares) + traced["trace.other_share"] == pytest.approx(1.0, abs=0.001)
        assert traced["analysis.self_share"] == 0
        layer_calls = sum(traced[f"{layer}.calls"] for layer in perf_layers.LAYERS)
        assert 0.95 * traced["trace.total_calls"] < layer_calls <= traced["trace.total_calls"]


def test_a_broken_invariant_fails_the_run(monkeypatch, capsys):
    from repro.sim import RunMetrics

    honest = RunMetrics.counters

    def skewed(self):
        counters = honest(self)
        counters["pseudo_commits"] += 1
        return counters

    monkeypatch.setattr(RunMetrics, "counters", skewed)
    code = perf_run.main(["--workload", "rw-hot", "--quick", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_unknown_files_fall_to_their_package_layer():
    assert perf_layers.layer_of(("/x/src/repro/sim/engine.py", 1, "f")) == "engine"
    assert perf_layers.layer_of(("/x/src/repro/core/new_split.py", 1, "f")) == "scheduler"
    assert perf_layers.layer_of(("/x/src/repro/distributed/new_split.py", 1, "f")) == "router"
    assert perf_layers.layer_of(("/usr/lib/python3/random.py", 1, "f")) == "other"
    assert not perf_layers.is_deterministic("engine.self_s")
    assert perf_layers.is_deterministic("engine.calls")
