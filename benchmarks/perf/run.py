#!/usr/bin/env python3
"""Wall-clock benchmark of the reproduction, end to end and layer by layer.

Two ways in, one measuring path:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    measures one workload in this process and prints, as its last line, one
    JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
    end-to-end metrics with ``--trace 0``, the per-layer metrics with
    ``--trace 1``.  This is the command ``BENCHMARK.json`` declares.

``run.py [--seed 1] [--output FILE] [--quick]``
    runs every workload that way, untraced then traced, each in a fresh
    subprocess, prints every metric as ``workload metric unit value`` and
    writes one host-tagged JSON file that ``compare.py`` reads.

Closed system, one process, one thread.  Timings are wall-clock
``perf_counter`` medians over the repeats that fit ``--seconds``; a failed
output check makes the run incorrect and the exit code non-zero.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import zlib
from typing import Any, Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (sibling module, path set above)
import workloads as workload_definitions  # noqa: E402

SCHEMA = "repro-perf-v1"
#: Fewest repeats a timing may rest on (a median, and a determinism check).
MIN_REPEATS = 3
#: Share of ``--seconds`` a traced run spends on the untraced repeats that
#: ``engine.events_per_s`` and ``trace.overhead_x`` are measured against.
TRACE_UNTRACED_SHARE = 0.4
#: Seconds ``reference_loop`` takes on the reference host (2 cores, CPython
#: 3.11) while nothing else competes for the core; see ``HostSpeed``.
REFERENCE_LOOP_S = 0.085


def load_declaration() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _now() -> float:
    """A clock a parent and its child process share (for cross-process set-up time)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# One sample: set up once, optionally run once
# ----------------------------------------------------------------------
def take_sample(
    workload: Any, seed: int, trace: bool, started: Optional[float] = None, run: bool = True
) -> Dict[str, Any]:
    """Time one set-up and (unless ``run`` is false) one run of the workload.

    ``started`` backdates the set-up to when the parent launched this
    interpreter, so an isolated workload's ``setup_s`` includes what its
    users pay: interpreter start and imports.
    """
    if started is None:
        gc.collect()
        started = _now()
    built = workload.setup(seed)
    sample: Dict[str, Any] = {"setup_s": _now() - started}
    if not run:
        return sample
    gc.collect()
    profile = cProfile.Profile() if trace else None
    run_started = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        result = workload.run(built)
    finally:
        if profile is not None:
            profile.disable()
    sample["run_s"] = time.perf_counter() - run_started
    outcome = workload.outcome(result)
    sample.update(
        transactions=outcome.transactions,
        counters=outcome.counters,
        simulated_time=outcome.simulated_time,
        response_time_total=outcome.response_time_total,
        digest=outcome.digest,
        failures=outcome.failures,
        rss_mb=_rss_mb(),
    )
    if profile is not None:
        sample["trace"] = layers.profile_layers(profile)
    return sample


def sample_in_child(args: argparse.Namespace, trace: bool, run: bool) -> Dict[str, Any]:
    """``take_sample`` in a fresh interpreter, for isolated workloads."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(trace)), "--src", str(args.src),
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    if not run:
        command.append("--setup-only")
    command += ["--started", repr(_now())]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# One workload: repeats, checks, metrics
# ----------------------------------------------------------------------
def _summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, extremes and quartiles (the extremes below four samples)."""
    q1, q3 = min(values), max(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values), "min": min(values), "max": max(values),
        "q1": q1, "q3": q3, "n": len(values),
    }  # fmt: skip


def reference_loop() -> float:
    """Seconds a fixed interpreter-bound loop takes on this core right now.

    Heap, dict, tuple and call traffic, like the simulator's own; what it
    computes is irrelevant, only that it is the same work every time.
    """
    started = time.perf_counter()
    heap: List[Any] = []
    counts: Dict[int, int] = {}
    for index in range(150_000):
        heapq.heappush(heap, ((index * 7919) % 10007, index))
        counts[index % 997] = counts.get(index % 997, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - started


class HostSpeed:
    """Scales each timing to the speed of the reference host.

    The sandbox's cores speed up and slow down by tens of percent over
    tens of seconds (CPU time moves with wall time, so it is the core, not
    the scheduler): medians of seven identical repeats ranged over 45% raw
    and 6% once divided by the reference loop timed right before and after
    them.  The end-to-end timings are therefore reported as measured seconds
    times ``REFERENCE_LOOP_S`` / (reference loop seconds around the timing);
    on a quiet reference host the factor is 1.  The raw seconds and the
    factors ride along in the ``detail`` block.
    """

    def __init__(self) -> None:
        self._before = reference_loop()

    def factor(self) -> float:
        """The scale for whatever was timed since the previous call."""
        after = reference_loop()
        factor = REFERENCE_LOOP_S / ((self._before + after) / 2.0)
        self._before = after
        return factor


def measure(workload: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """Repeat the workload for ``--seconds`` and reduce the samples to metrics."""
    trace = bool(args.trace)

    def sample(traced: bool = False, run: bool = True) -> Dict[str, Any]:
        if workload.isolated:
            return sample_in_child(args, traced, run)
        return take_sample(workload, args.seed, traced, run=run)

    if not workload.isolated:
        # Imports and lazy set-up finish before anything is timed; an
        # isolated workload's users pay them on every run, so it keeps them.
        workload.setup(args.seed)
    speed = HostSpeed()
    setups: List[float] = []
    if not trace:
        # The whole batch takes a second or less: one factor serves it.
        batch = [sample(run=False)["setup_s"] for _ in range(workload.constructions)]
        factor = speed.factor()
        setups = [seconds * factor for seconds in batch]
    if args.quick:
        min_repeats, budget = 1, 0.0
    elif trace:
        min_repeats, budget = 1, args.seconds * TRACE_UNTRACED_SHARE
    else:
        min_repeats, budget = MIN_REPEATS, float(args.seconds)
    samples: List[Dict[str, Any]] = []
    measuring_since = time.perf_counter()
    # Stop when one more repeat of the average length would overrun.
    while len(samples) < min_repeats or (
        (time.perf_counter() - measuring_since) * (1 + 1 / len(samples)) <= budget
    ):
        samples.append(sample())
        samples[-1]["host_factor"] = speed.factor()
    traced = sample(traced=True) if trace else None

    every = samples + ([traced] if traced else [])
    failed = 0
    failures: List[str] = []
    for index, one in enumerate(every):
        problems = list(one["failures"])
        if one["digest"] != every[0]["digest"]:
            problems.append("counters digest differs from the first repeat (non-determinism)")
        failed += bool(problems)
        failures += [f"repeat {index}: {problem}" for problem in problems]

    raw_run_seconds = [s["run_s"] for s in samples]
    if traced is None:
        run_seconds = [s["run_s"] * s["host_factor"] for s in samples]
        setups += [s["setup_s"] * s["host_factor"] for s in samples]
        rss = [s["rss_mb"] for s in samples] if workload.isolated else [_rss_mb()]
        metrics = {
            "txn_per_s": samples[0]["transactions"] / statistics.median(run_seconds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }
        detail = {
            "run_s": _summary(run_seconds),
            "setup_s": _summary(setups),
            "peak_rss_mb": _summary(rss),
            "raw_run_s": _summary(raw_run_seconds),
            "host_factor": _summary([s["host_factor"] for s in samples]),
        }
    else:
        # Per-layer times stay raw: shares and ratios need no common scale.
        metrics = layers.layer_metrics(
            traced["trace"], traced, traced["run_s"], statistics.median(raw_run_seconds)
        )
        detail = {"raw_run_s": _summary(raw_run_seconds), "traced_run_s": traced["run_s"]}
    return {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "failures": failures,
    }


def run_one(args: argparse.Namespace, declaration: Dict[str, Any]) -> int:
    """The declared command: one workload, result as the last stdout line."""
    workload = _workload(args)
    measured = measure(workload, args)
    units = {
        entry["name"]: entry["unit"]
        for entry in declaration["per_layer" if args.trace else "end_to_end"]
    }
    missing = sorted(set(units) ^ set(measured["metrics"]))
    if missing:
        raise SystemExit(f"measured and declared metric names differ: {missing}")
    for failure in measured["failures"]:
        print(f"{workload.name}: FAILED {failure}", file=sys.stderr)
    result = {
        "correct": measured["correct"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in measured["metrics"].items()
        },
    }
    for name, entry in result["metrics"].items():
        print(workload.name, name, entry["unit"], repr(entry["value"]))
    if args.detail:
        result["detail"] = measured["detail"]
        result["failures"] = measured["failures"]
    print(json.dumps(result))
    return 0 if measured["correct"] else 1


def run_child(args: argparse.Namespace) -> int:
    sample = take_sample(
        _workload(args), args.seed, bool(args.trace),
        started=args.started, run=not args.setup_only,
    )  # fmt: skip
    print(json.dumps(sample))
    return 0


def _workload(args: argparse.Namespace) -> Any:
    workload = workload_definitions.make_workloads()[args.workload]
    if args.quick:
        workload.shrink()
    return workload


# ----------------------------------------------------------------------
# Every workload: the human-facing command
# ----------------------------------------------------------------------
def host_tag() -> Dict[str, Any]:
    model = ""
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
    }


def source_digest(src: pathlib.Path) -> int:
    """crc32 of the measured ``repro`` sources: equal digests (and seeds)
    mean two result files must agree on every deterministic count."""
    digest = 0
    for path in sorted((src / "repro").rglob("*.py")):
        digest = zlib.crc32(path.relative_to(src).as_posix().encode("utf-8"), digest)
        digest = zlib.crc32(path.read_bytes(), digest)
    return digest


def noise_warnings(
    name: str, detail: Dict[str, Any], bounds: Dict[str, float]
) -> List[str]:
    """A timing whose samples spread (quartile to quartile) wider than its bound."""
    warnings = []
    for timing, metric in (("run_s", "txn_per_s"), ("setup_s", "setup_s")):
        summary = detail[timing]
        spread = (summary["q3"] - summary["q1"]) / summary["median"]
        if spread > bounds[metric]:
            warnings.append(
                f"{name}: {timing} samples spread {spread:.1%} of the median "
                f"(n={summary['n']}), wider than the {metric} bound {bounds[metric]:.0%}"
            )
    return warnings


def run_matrix(args: argparse.Namespace, declaration: Dict[str, Any]) -> int:
    names = [entry["name"] for entry in declaration["workloads"]]
    if args.quick:
        names = [name for name in names if name in workload_definitions.QUICK_WORKLOADS]
    bounds = {entry["name"]: entry["bound"] for entry in declaration["end_to_end"]}
    nproc = os.cpu_count() or 1
    load_start = os.getloadavg()[0]
    warnings: List[str] = []
    if load_start > nproc - 1:
        warnings.append(f"1-min load {load_start:.2f} > nproc - 1 at start")
    results: Dict[str, Any] = {}
    correct = True
    for name in names:
        results[name] = {}
        for trace, block in ((0, "end_to_end"), (1, "per_layer")):
            command = [
                sys.executable, str(HERE / "run.py"), "--detail",
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--src", str(args.src),
            ] + (["--quick"] if args.quick else [])  # fmt: skip
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            if done.returncode not in (0, 1) or not lines:
                print(f"{name}: run exited {done.returncode} without a result", file=sys.stderr)
                return 2
            print("\n".join(lines[:-1]))
            measured = json.loads(lines[-1])
            correct = correct and measured["correct"]
            results[name][block] = measured
            if trace == 0 and not args.quick:
                warnings += noise_warnings(name, measured["detail"], bounds)
        attempted = sum(results[name][block]["attempted"] for block in results[name])
        failed = sum(results[name][block]["failed"] for block in results[name])
        print(name, "failed_share", "share", failed / attempted)
    load_end = os.getloadavg()[0]
    # By now this single-threaded run is itself a load of one.
    if load_end - 1 > nproc - 1:
        warnings.append(f"1-min load {load_end:.2f} > nproc at end (this run counts for 1)")
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.output:
        document = {
            "schema": SCHEMA,
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "source_crc32": source_digest(args.src),
            "host": host_tag(),
            "load_1min": {"start": load_start, "end": load_end},
            "warnings": warnings,
            "workloads": results,
        }
        output = pathlib.Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workload_definitions.make_workloads()),
                        help="measure this workload only (the declared command)")
    parser.add_argument("--seed", type=int, default=1, help="SimulationParameters.seed")
    parser.add_argument("--seconds", type=float, help="measuring time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics from a traced repeat")
    parser.add_argument("--src", type=pathlib.Path, default=ROOT / "src",
                        help="source tree to measure (default: this checkout's src/)")
    parser.add_argument("--output", help="write the host-tagged results of every workload here")
    parser.add_argument("--quick", action="store_true",
                        help="smoke test: two workloads, tiny sizes, one repeat, no noise guard")
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    args.src = args.src.resolve()
    if not (args.src / "repro").is_dir():
        print(f"run.py: no repro package under {args.src}", file=sys.stderr)
        return 2
    if str(args.src) not in sys.path:
        sys.path.insert(0, str(args.src))
    if args.child:
        return run_child(args)
    declaration = load_declaration()
    if args.seconds is None:
        args.seconds = float(declaration["run_seconds"])
    if args.workload:
        return run_one(args, declaration)
    return run_matrix(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
