"""Write BENCH_summary.json: deterministic per-figure counters + timing.

The pytest-benchmark output (BENCH_results.json) records wall-clock times,
which vary run to run and machine to machine.  This tool records the
*deterministic* side of every figure experiment — raw simulation counters
per (figure, variant, multiprogramming level) point — so the performance
trajectory of the reproduction can be tracked exactly: two checkouts that
produce different counters changed behaviour, not noise.

Usage (from the repository root)::

    python tools/bench_summary.py                       # all figures, smoke scale
    python tools/bench_summary.py --scale bench --workers 4
    python tools/bench_summary.py --figures figure-4 figure-4-sites
    python tools/bench_summary.py --output BENCH_summary.json

Every experiment runs through the central registry's parallel runner
(:func:`repro.analysis.run_experiment`); ``--workers N`` fans the seeded
points out over N processes and produces byte-identical counters to the
serial run — only the new ``timing`` block (per-experiment wall-clock
seconds plus the worker count) depends on the host.

Counters recorded per point (summed over the point's runs): completions,
commits, pseudo-commits, blocks, restarts, cycle checks, aborts, total abort
length, commit-dependency edges, simulation-engine events, the simulated
time (a deterministic float), and — for finite-resource points — the
``resource_*`` utilisation counters (CPU/disk served and waits, per site
under per-site placement, plus network messages when a ``msg_time`` cost is
modelled), so resource saturation is visible in the perf trajectory.
Multi-site points additionally carry the ``replication_*`` counters
(protocol messages, failovers, catch-up events, read/write unavailability,
cycle sweeps, the under-replication window) and the ``commit_*`` counters
(prepare rounds/messages/acks, certifications and their aborts,
re-replication work, forced reports), so each protocol's coordination
overhead is tracked per PR — ``figure-4-protocols`` and
``figure-4-commit`` are the experiments built around them.  A ``profile``
block records the deterministic interpreter calls/event at the reference
profile point (mpl=50, 400 completions) — the number the CI perf gate
compares against ``benchmarks/profile_baseline.json`` — together with the
measured per-kernel trajectory of the raw-speed PRs.  Every value except
the ``timing`` block derives only from ``(parameters, seed)`` and the
interpreter minor version; nothing else measures the host machine.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import (  # noqa: E402  (path bootstrap above)
    EXPERIMENT_REGISTRY,
    profile_simulation,
    run_experiment,
)
from repro.core.policy import ConflictPolicy  # noqa: E402
from repro.sim.params import SimulationParameters  # noqa: E402
from repro.analysis.figures import (  # noqa: E402
    BENCH_SCALE,
    PAPER_SCALE,
    SMOKE_SCALE,
    all_figure_ids,
)
from repro.lint import lint_paths, rule_counts  # noqa: E402

_SCALES = {"smoke": SMOKE_SCALE, "bench": BENCH_SCALE, "paper": PAPER_SCALE}


def lint_summary() -> Dict[str, object]:
    """Per-rule violation counts of ``repro lint`` over the package tree.

    Rides along in BENCH_summary.json so the uploaded artifact records the
    static-analysis state of the exact commit the counters came from (the
    gating lint job fails the build on violations; this is the audit trail).
    """
    violations = lint_paths([str(ROOT / "src" / "repro")])
    return {
        "rule_counts": rule_counts(violations),
        "total": len(violations),
    }


#: The hot-loop perf trajectory of the "raw speed" PRs at the reference
#: profile point, in interpreter calls per engine event (python 3.11).
#: Historical record, not recomputed: each entry is the measured value with
#: the named kernel (and everything before it) in place.
_KERNEL_TRAJECTORY = {
    "round2_baseline": 130.99,          # after PR 7's hot-loop overhaul
    "incremental_cycle_detection": 120.80,  # Pearce-Kelly online topo order
    "compiled_compatibility_tables": 115.93,  # interned ops + flat arrays
    "same_timestamp_batching": 115.02,  # one heap entry per timestamp burst
    "fused_grant_path_indexed_queues": 96.79,  # compiled no-conflict submit
    "partial_callbacks_stop_flag": 93.72,  # partials + engine stop flag
    "typed_dispatch_pooled_submit": 76.61,  # kind-indexed events + slab pools
    "shared_compiled_tables": 75.55,  # one table compile per spec, liveness as data
    "sole_owner_log_removal": 70.35,  # no replay/un-index for an unshared log, shared templates
    "direct_central_coordinator": 53.91,  # a one-site run drives its scheduler; no router relay
}


def results_dir_warnings() -> list:
    """Orphaned files under ``benchmarks/results``: reports matching no id.

    Result files are named in one place (``benchmarks/conftest``'s
    ``result_filename``): the registry id verbatim, except the tables
    benchmark's per-type ``tables_<type>.txt`` reports, which all map back
    to the registry's single ``tables`` entry.  A file matching neither is
    a stale artifact left behind by a renamed experiment and should be
    deleted rather than shipped in the uploaded results.
    """
    results_dir = ROOT / "benchmarks" / "results"
    if not results_dir.is_dir():
        return []
    known = set(EXPERIMENT_REGISTRY.ids())
    warnings = []
    for path in sorted(results_dir.glob("*.txt")):
        name = path.stem
        if name.startswith("tables_"):
            name = "tables"
        if name not in known:
            warnings.append(
                f"warning: benchmarks/results/{path.name} matches no "
                "registry experiment id — stale artifact from a renamed "
                "experiment; delete it"
            )
    return warnings


def profile_summary() -> Dict[str, object]:
    """Deterministic calls/event at the reference profile point.

    This is the number the CI perf gate tracks (``repro profile --compare``
    against ``benchmarks/profile_baseline.json`` fails the build on a >3%
    regression); recording it here keeps the perf trajectory in the same
    artifact as the figure counters.  Fully deterministic for a given
    interpreter minor version.
    """
    params = SimulationParameters(
        database_size=200,
        mpl_level=50,
        total_completions=400,
        policy=ConflictPolicy.RECOVERABILITY,
        seed=1,
    )
    report = profile_simulation(params, workload_kind="readwrite")
    payload = report.to_json_dict()
    # The full per-function table lives in profile_baseline.json; the
    # summary records the headline number plus the heaviest functions.
    payload["top_functions"] = payload.pop("functions")[:10]
    payload["kernel_trajectory"] = dict(_KERNEL_TRAJECTORY)
    return payload


def _point_counters(point) -> Dict[str, float]:
    """The deterministic counters of one point (summed over its runs).

    The counter set comes from :meth:`repro.sim.metrics.RunMetrics.counters`
    (the single source of truth) via ``AveragedMetrics.counters``, plus the
    deterministic simulated time and the run count.
    """
    counters: Dict[str, float] = dict(point.counters)
    counters["runs"] = point.runs
    counters["simulated_time"] = round(point.simulated_time, 6)
    return counters


def summarize(figure_ids, scale_name, workers=1) -> Dict[str, object]:
    """Run every requested experiment and collect its counters and timing.

    Everything in the returned payload except the ``timing`` block is
    deterministic: byte-identical for any ``workers`` value, on any host.
    """
    scale = _SCALES[scale_name]
    figures: Dict[str, object] = {}
    seconds: Dict[str, float] = {}
    for figure_id in figure_ids:
        spec = EXPERIMENT_REGISTRY.spec(figure_id, scale)
        started = time.perf_counter()
        result = run_experiment(spec, workers=workers)
        seconds[figure_id] = round(time.perf_counter() - started, 3)
        variants: Dict[str, Dict[str, Dict[str, float]]] = {}
        for variant in spec.variants:
            variants[variant.label] = {
                str(mpl_level): _point_counters(point)
                for mpl_level, point in result.points[variant.label].items()
            }
        figures[figure_id] = {"title": spec.title, "points": variants}
        print(f"  {figure_id}: {len(spec.variants)} variants x "
              f"{len(spec.mpl_levels)} mpl levels "
              f"({seconds[figure_id]:.3f}s)", flush=True)
    timing = {
        "workers": workers,
        "seconds": seconds,
        "total_seconds": round(sum(seconds.values()), 3),
    }
    started = time.perf_counter()
    profile = profile_summary()
    # The profiled run's wall-clock belongs with the other host-dependent
    # numbers, not in the deterministic profile block.
    timing["profile_wall_seconds"] = profile.pop("wall_seconds", None)
    print(f"  profile reference point: "
          f"{profile['calls_per_event']:.2f} calls/event "
          f"({time.perf_counter() - started:.3f}s)", flush=True)
    return {
        "scale": scale_name,
        "figures": figures,
        "lint": lint_summary(),
        "profile": profile,
        "timing": timing,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(_SCALES), default="smoke")
    parser.add_argument("--figures", nargs="+", default=None,
                        metavar="FIGURE", help="restrict to these figure ids")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the point fan-out "
                             "(counters are identical for any value)")
    parser.add_argument("--output", type=pathlib.Path,
                        default=ROOT / "BENCH_summary.json")
    arguments = parser.parse_args(argv)
    if arguments.workers < 1:
        parser.error(f"--workers must be >= 1, got {arguments.workers}")
    figure_ids = arguments.figures if arguments.figures else all_figure_ids()
    unknown = sorted(set(figure_ids) - set(EXPERIMENT_REGISTRY.runnable_ids()))
    if unknown:
        parser.error(f"unknown figures: {unknown}; known: "
                     f"{EXPERIMENT_REGISTRY.runnable_ids()}")
    summary = summarize(figure_ids, arguments.scale, workers=arguments.workers)
    for warning in results_dir_warnings():
        print(warning, file=sys.stderr)
    arguments.output.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {arguments.output} ({len(summary['figures'])} figures, "
          f"scale={arguments.scale}, workers={arguments.workers}, "
          f"{summary['timing']['total_seconds']:.3f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
