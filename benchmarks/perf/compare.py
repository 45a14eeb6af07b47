#!/usr/bin/env python3
"""Compare two result files written by ``run.py --output``: A (before) and B.

Per workload and end-to-end metric: both medians, B's change relative to A
and a verdict against the bound ``BENCHMARK.json`` fixes for the metric —

``better``        every sample of B beats every sample of A;
``worse``         B's median is worse than A's by more than the bound;
``unresolved``    neither, and the two sides' quartile ranges overlap by more
                  than the bound: the noise is wider than what is being judged;
``within bound``  otherwise.

Every deterministic per-layer count is then diffed exactly.  When both files
measured the same source, seed and python version, a differing count means
a non-deterministic run and fails the comparison; between two commits the
differences are the change's deterministic footprint and are only listed.

Exit code 1 on any ``worse``, any failed run, or any such count mismatch.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from layers import is_deterministic  # noqa: E402  (sibling module, path set above)
from run import SCHEMA, load_declaration  # noqa: E402

#: The timing whose samples a metric's ranges come from.  Throughput
#: is transactions over ``run_s``, so its ranges are the inverted ``run_s`` ranges.
_RANGE_SOURCE = {"txn_per_s": "run_s", "setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb"}


def load(path: str) -> Dict[str, Any]:
    document = json.loads(pathlib.Path(path).read_text())
    if document.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: not a {SCHEMA} result file")
    return document


def _span(measured: Dict[str, Any], metric: str, low: str, high: str) -> Tuple[float, float]:
    """``(low, high)`` of the metric over one side's samples, e.g. ``min``/``max``."""
    summary = measured["detail"][_RANGE_SOURCE[metric]]
    if metric == "txn_per_s":
        transactions = measured["metrics"][metric]["value"] * summary["median"]
        return transactions / summary[high], transactions / summary[low]
    return summary[low], summary[high]


def verdict(side_a: Dict[str, Any], side_b: Dict[str, Any], entry: Dict[str, Any]) -> str:
    metric, bound = entry["name"], entry["bound"]
    a = side_a["metrics"][metric]["value"]
    b = side_b["metrics"][metric]["value"]
    min_a, max_a = _span(side_a, metric, "min", "max")
    min_b, max_b = _span(side_b, metric, "min", "max")
    if entry["better"] == "higher":
        clear_win, worse_by = min_b > max_a, (a - b) / a
    else:
        clear_win, worse_by = max_b < min_a, (b - a) / a
    # One sample a side (peak RSS of one interpreter) cannot show a clear win.
    if clear_win and side_a["detail"][_RANGE_SOURCE[metric]]["n"] > 1:
        return "better"
    if worse_by > bound:
        return "worse"
    q1_a, q3_a = _span(side_a, metric, "q1", "q3")
    q1_b, q3_b = _span(side_b, metric, "q1", "q3")
    if (min(q3_a, q3_b) - max(q1_a, q1_b)) / a > bound:
        return "unresolved"
    return "within bound"


def compare(a: Dict[str, Any], b: Dict[str, Any], declaration: Dict[str, Any]) -> int:
    def python_minor(document: Dict[str, Any]) -> str:
        return document["host"]["python"].rsplit(".", 1)[0]

    same_inputs = a["seed"] == b["seed"] and a["quick"] == b["quick"]
    same_code = a["source_crc32"] == b["source_crc32"] and python_minor(a) == python_minor(b)
    problems: List[str] = []
    print(f"{'workload':<14} {'metric':<12} {'A':>12} {'B':>12} {'B vs A':>8}  verdict")
    names = [entry["name"] for entry in declaration["workloads"] if entry["name"] in a["workloads"]]
    for name in names:
        if name not in b["workloads"]:
            problems.append(f"{name}: missing from B")
            continue
        side_a, side_b = a["workloads"][name]["end_to_end"], b["workloads"][name]["end_to_end"]
        for entry in declaration["end_to_end"]:
            metric = entry["name"]
            value_a = side_a["metrics"][metric]["value"]
            value_b = side_b["metrics"][metric]["value"]
            outcome = verdict(side_a, side_b, entry)
            print(
                f"{name:<14} {metric:<12} {value_a:>12.5g} {value_b:>12.5g} "
                f"{(value_b - value_a) / value_a:>+8.1%}  {outcome}"
            )
            if outcome == "worse":
                problems.append(f"{name} {metric}: worse by more than {entry['bound']:.0%}")
        for label, side in (("A", a), ("B", b)):
            for block in side["workloads"][name].values():
                if not block["correct"]:
                    problems.append(f"{name}: {label} has {block['failed']} failed runs")

    print()
    if not same_inputs:
        print("deterministic counts: not compared (the two files used different seeds or sizes)")
    else:
        mismatches = 0
        for name in names:
            if name not in b["workloads"]:
                continue
            layer_a = a["workloads"][name]["per_layer"]["metrics"]
            layer_b = b["workloads"][name]["per_layer"]["metrics"]
            for metric in layer_a:
                if not is_deterministic(metric):
                    continue
                value_a = layer_a[metric]["value"]
                value_b = layer_b.get(metric, {}).get("value")
                if value_a != value_b:
                    mismatches += 1
                    print(f"count differs: {name} {metric}: {value_a!r} -> {value_b!r}")
        if not mismatches:
            print("deterministic counts: identical on every workload")
        elif same_code:
            problems.append(
                f"{mismatches} deterministic counts differ between runs of the same source and seed"
            )
        else:
            print(f"{mismatches} deterministic counts differ (different source: listed, not failed)")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="result file of the parent / first run")
    parser.add_argument("b", help="result file of the change / second run")
    args = parser.parse_args(argv)
    return compare(load(args.a), load(args.b), load_declaration())


if __name__ == "__main__":
    sys.exit(main())
