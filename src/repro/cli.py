"""Command-line interface for the reproduction.

The CLI exposes the experiment harness without writing any Python:

``python -m repro tables [--type stack]``
    regenerate the compatibility tables (Tables I-VIII) and the parameter
    table (Tables IX-X), comparing declared and derived entries;
``python -m repro figures [--list] [--only ID ...] [--scale smoke|bench|paper] [--workers N] [--out DIR]``
    list the experiment registry (figures, ablations, tables), or run
    experiments through the parallel runner and print (and optionally save)
    each paper-style report, followed on stdout by whether the expected
    shape held; every worker count produces byte-identical results;
``python -m repro simulate [--mpl 50 --policy recoverability ...]``
    run a single simulation point and print its metrics; ``--policy 2pl``
    selects the strict two-phase-locking baseline backend;
``python -m repro simulate --sites 4 --replication copies --fail-at 2:1 --recover-at 6:1``
    run the multi-site system: four sites with available-copies replication,
    site 1 crashing at t=2 s and recovering at t=6 s of simulated time;
``python -m repro simulate --sites 4 --resource-units 1 --resource-placement per_site --msg-time 0.001``
    give each site its own hardware (one CPU + two disks here) and charge
    1 ms of network delay to work routed away from a transaction's home
    site, so replicated reads scale with the site count;
``python -m repro simulate --sites 3 --replication-protocol quorum --quorum-r 2 --quorum-w 2``
    keep the replicas consistent with version-numbered read/write quorums
    (``R + W > N``) instead of available-copies; ``--replication-protocol
    primary-copy`` funnels writes through an elected primary instead;
``python -m repro simulate --sites 3 --replication-protocol quorum --quorum-r 2 --quorum-w 2 --commit-protocol two-phase``
    report each commit durable only after certification and ``W`` live
    stamped copies per written object (2PC), re-replicating under-stamped
    objects when a site crashes; ``--prepare-timeout 0.5`` bounds how long
    a held commit may wait for its stamps before being force-reported;
``python -m repro simulate --sites 4 --resource-placement per_site --site-units 2,1,1,4``
    heterogeneous hardware: per-site resource-unit counts;
``python -m repro simulate --json``
    emit the run's deterministic metrics and raw counters as JSON (for
    scripting and CI gating).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional, Sequence, Tuple

from .analysis import (
    BENCH_SCALE,
    EXPERIMENT_REGISTRY,
    PAPER_SCALE,
    SMOKE_SCALE,
    compare_tables,
    paper_table_reports,
    parameter_table,
    render_result,
    run_experiment,
)
from .adts import paper_types
from .core.errors import SimulationError
from .core.policy import ConflictPolicy
from .distributed import RouterStatistics
from .sim.params import SimulationParameters
from .sim.routing import CentralCoordinator
from .sim.simulator import Simulation

_SCALES = {"smoke": SMOKE_SCALE, "bench": BENCH_SCALE, "paper": PAPER_SCALE}
_POLICIES = {policy.value: policy for policy in ConflictPolicy}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Semantics-Based Concurrency Control: Beyond Commutativity'.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    tables = subparsers.add_parser("tables", help="regenerate Tables I-X")
    tables.add_argument(
        "--type",
        dest="type_name",
        choices=paper_types(),
        default=None,
        help="restrict to one data type (default: all four)",
    )

    figures = subparsers.add_parser(
        "figures",
        help="run registry experiments through the parallel runner",
    )
    figures.add_argument("--list", action="store_true", dest="list_only",
                         help="list every registered experiment and exit")
    figures.add_argument("--only", nargs="+", metavar="ID", default=None,
                         help="restrict to these experiment ids "
                              "(default: every parameter-sweep experiment)")
    figures.add_argument("--workers", type=int, default=1,
                         help="worker processes for the point fan-out; the "
                              "results are identical for every worker count "
                              "(default 1: the serial path)")
    figures.add_argument("--scale", choices=sorted(_SCALES), default="smoke")
    figures.add_argument("--out", type=pathlib.Path, default=None,
                         help="directory to save one report per experiment into")

    lint = subparsers.add_parser(
        "lint", help="run the repo's determinism/conformance static analyzer"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the repro package)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable output (per-rule counts + violations)",
    )

    simulate = subparsers.add_parser("simulate", help="run a single simulation point")
    simulate.add_argument("--workload", choices=["readwrite", "adt"], default="readwrite")
    simulate.add_argument("--policy", choices=sorted(_POLICIES), default="recoverability")
    simulate.add_argument("--mpl", type=int, default=50)
    simulate.add_argument("--completions", type=int, default=500)
    simulate.add_argument("--database-size", type=int, default=1000)
    simulate.add_argument("--resource-units", type=int, default=None,
                          help="number of resource units (omit for infinite); "
                               "under --resource-placement per_site this is "
                               "the hardware of each site")
    simulate.add_argument("--resource-placement", choices=["global", "per_site"],
                          default="global",
                          help="one shared CPU/disk pool (global, the paper's "
                               "model) or one pool per site (per_site)")
    simulate.add_argument("--msg-time", type=float, default=0.0,
                          help="cross-site network cost in seconds charged to "
                               "work routed away from a transaction's home "
                               "site (default 0: no network model)")
    simulate.add_argument("--write-probability", type=float, default=0.3)
    simulate.add_argument("--pc", type=int, default=4)
    simulate.add_argument("--pr", type=int, default=4)
    simulate.add_argument("--unfair", action="store_true",
                          help="disable fair scheduling at the object managers")
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--sites", type=int, default=1,
                          help="number of sites (default 1: the centralized system)")
    simulate.add_argument("--replication", choices=["single", "hash", "copies"],
                          default=None,
                          help="object placement across sites (default: 'single' "
                               "with one site, 'copies' with several)")
    simulate.add_argument("--replication-protocol",
                          choices=["available-copies", "quorum", "primary-copy"],
                          default="available-copies",
                          help="how replicas are selected and recovered: "
                               "available-copies (read-one/write-all, "
                               "unreadable window after recovery), quorum "
                               "(versioned R/W quorums with catch-up) or "
                               "primary-copy (writes through an elected "
                               "primary, catch-up)")
    simulate.add_argument("--quorum-r", type=int, default=None, metavar="R",
                          help="read quorum size for --replication-protocol "
                               "quorum (default: a majority of the copies)")
    simulate.add_argument("--quorum-w", type=int, default=None, metavar="W",
                          help="write quorum size for --replication-protocol "
                               "quorum (default: a majority of the copies)")
    simulate.add_argument("--commit-protocol",
                          choices=["one-phase", "two-phase"],
                          default="one-phase",
                          help="when a distributed commit reports durable: "
                               "one-phase (one fan-out, durable once every "
                               "branch drained) or two-phase (commit-time "
                               "cycle certification, W-ack durability under "
                               "quorum, re-replication on site failure)")
    simulate.add_argument("--prepare-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="force-report a two-phase commit still below "
                               "its W-stamp condition after this much "
                               "simulated time (default: wait indefinitely)")
    simulate.add_argument("--site-units", default=None, metavar="U0,U1,...",
                          help="heterogeneous per-site hardware: one "
                               "resource-unit count per site (comma-"
                               "separated, requires --resource-placement "
                               "per_site and one entry per --sites)")
    simulate.add_argument("--fail-at", action="append", default=[], metavar="TIME:SITE",
                          help="crash SITE at simulated TIME seconds (repeatable)")
    simulate.add_argument("--recover-at", action="append", default=[], metavar="TIME:SITE",
                          help="recover SITE at simulated TIME seconds (repeatable)")
    simulate.add_argument("--json", action="store_true",
                          help="emit machine-readable deterministic metrics as JSON")
    return parser


def _parse_site_events(
    fail_at: List[str], recover_at: List[str], site_count: int, error
) -> Tuple[Tuple[float, str, int], ...]:
    """Turn repeated ``TIME:SITE`` flags into a sorted failure schedule.

    ``error`` is :meth:`argparse.ArgumentParser.error`: every malformed entry
    — bad syntax, unparsable numbers, negative times, sites outside the
    ``--sites`` range — exits with a usage message instead of a traceback.
    """
    events: List[Tuple[float, str, int]] = []
    for action, entries in (("fail", fail_at), ("recover", recover_at)):
        for entry in entries:
            try:
                time_text, site_text = entry.split(":", 1)
                time, site = float(time_text), int(site_text)
            except ValueError:
                error(f"--{action}-at expects TIME:SITE (e.g. 2.5:1), got {entry!r}")
            if time < 0:
                error(f"--{action}-at time must be non-negative, got {entry!r}")
            if not 0 <= site < site_count:
                error(
                    f"--{action}-at site {site} is outside [0, {site_count}) "
                    f"for --sites {site_count}"
                )
            events.append((time, action, site))
    events.sort(key=lambda event: (event[0], event[2], event[1]))
    return tuple(events)


def _command_tables(type_name: Optional[str], out) -> int:
    names = [type_name] if type_name else paper_types()
    for name in names:
        out.write(compare_tables(name).render() + "\n\n")
    if type_name is None:
        out.write(parameter_table() + "\n")
    return 0


def _render_tables_report() -> str:
    """The full Tables I-X report the registry's ``tables`` entry produces."""
    sections = [report.render() for report in paper_table_reports()]
    sections.append(parameter_table())
    return "\n\n".join(sections)


def _command_figures(arguments, out, error) -> int:
    """Drive the experiment registry through the parallel runner."""
    if arguments.list_only:
        width = max(len(entry.experiment_id) for entry in EXPERIMENT_REGISTRY)
        for entry in EXPERIMENT_REGISTRY:
            out.write(
                f"{entry.experiment_id.ljust(width)}  "
                f"[{entry.kind}] {entry.summary}\n"
            )
        return 0
    if arguments.workers < 1:
        error(f"--workers must be >= 1, got {arguments.workers}")
    experiment_ids = arguments.only or EXPERIMENT_REGISTRY.runnable_ids()
    unknown = [i for i in experiment_ids if i not in EXPERIMENT_REGISTRY]
    if unknown:
        error(
            f"unknown experiments {unknown}; known: "
            f"{sorted(EXPERIMENT_REGISTRY.ids())}"
        )
    scale = _SCALES[arguments.scale]
    for experiment_id in experiment_ids:
        entry = EXPERIMENT_REGISTRY.entry(experiment_id)
        verdict = ""
        if entry.builder is None:
            report = _render_tables_report()
        else:
            spec = EXPERIMENT_REGISTRY.spec(experiment_id, scale)
            result = run_experiment(
                spec,
                progress=lambda line: out.write("  " + line + "\n"),
                workers=arguments.workers,
            )
            report = render_result(result)
            if entry.check is not None:
                failed = entry.check(result)
                held = "not held: " + "; ".join(failed) if failed else "held"
                verdict = f"shape ({scale.name} scale): {held}\n"
        out.write(report + "\n" + verdict)
        if arguments.out is not None:
            arguments.out.mkdir(parents=True, exist_ok=True)
            (arguments.out / f"{experiment_id}.txt").write_text(report + "\n")
    return 0


def _parse_site_units(text: Optional[str], site_count: int, error):
    """Parse ``--site-units 2,1,1,4`` into a per-site tuple (or ``None``).

    Malformed entries and length mismatches exit with a usage message: a
    silently truncated or padded hardware list would misattribute every
    per-site measurement after it.
    """
    if text is None:
        return None
    try:
        units = tuple(int(entry) for entry in text.split(","))
    except ValueError:
        error(f"--site-units expects comma-separated integers (e.g. 2,1,1,4), "
              f"got {text!r}")
    if len(units) != site_count:
        error(f"--site-units lists {len(units)} sites but --sites is "
              f"{site_count}; give exactly one unit count per site")
    return units


def _command_lint(paths, as_json: bool, out, error) -> int:
    """Run the REP static analyzer; exit 1 when violations remain."""
    from .lint import lint_paths, render_json, render_text
    from .lint.runner import collect_files

    if not paths:
        # Default target: the installed repro package tree itself.
        paths = [str(pathlib.Path(__file__).resolve().parent)]
    missing = [path for path in paths if not pathlib.Path(path).exists()]
    if missing:
        # A mistyped path would otherwise lint nothing and report clean.
        error(f"no such file or directory: {', '.join(missing)}")
    try:
        violations = lint_paths(paths)
    except SyntaxError as exc:
        # Not a finding: exit 1 would read as "violations found".
        error(f"cannot parse {exc.filename}:{exc.lineno}: {exc.msg}")
    if as_json:
        out.write(render_json(violations, checked_files=len(collect_files(paths))))
    else:
        out.write(render_text(violations))
    return 1 if violations else 0


def _global_accounting(coordinator) -> RouterStatistics:
    """Global transaction accounting of a run, whoever coordinated it."""
    if not isinstance(coordinator, CentralCoordinator):
        return coordinator.router_stats
    # No router: the scheduler's transactions are the global ones, and
    # nothing multi-site (failures, cross-site cycles) can have happened.
    scheduler, stats = coordinator.scheduler, coordinator.stats
    return RouterStatistics(
        begins=scheduler.begun, commits=stats.commits,
        pseudo_commits=stats.pseudo_commits, aborts=stats.aborts,
    )


def _command_simulate(arguments, out, error) -> int:
    replication = arguments.replication
    if replication is None:
        replication = "single" if arguments.sites == 1 else "copies"
    try:
        params = SimulationParameters(
            database_size=arguments.database_size,
            mpl_level=arguments.mpl,
            total_completions=arguments.completions,
            policy=_POLICIES[arguments.policy],
            resource_units=arguments.resource_units,
            resource_placement=arguments.resource_placement,
            msg_time=arguments.msg_time,
            write_probability=arguments.write_probability,
            pc=arguments.pc,
            pr=arguments.pr,
            fair_scheduling=not arguments.unfair,
            seed=arguments.seed,
            site_count=arguments.sites,
            replication=replication,
            replication_protocol=arguments.replication_protocol,
            quorum_read=arguments.quorum_r,
            quorum_write=arguments.quorum_w,
            commit_protocol=arguments.commit_protocol,
            prepare_timeout=arguments.prepare_timeout,
            site_units=_parse_site_units(
                arguments.site_units, arguments.sites, error
            ),
            failure_schedule=_parse_site_events(
                arguments.fail_at, arguments.recover_at, arguments.sites, error
            ),
        )
    except SimulationError as exc:
        error(str(exc))
    simulation = Simulation(params, workload_kind=arguments.workload)
    metrics = simulation.run()
    if arguments.json:
        router_stats = _global_accounting(simulation.router)
        payload = {
            "params": params.describe(),
            "workload": arguments.workload,
            "metrics": metrics.as_dict(),
            "counters": metrics.counters(),
            "resources": simulation.resources.utilisation_summary(),
            "sites": {
                "count": params.site_count,
                "replication": params.replication,
                "replication_protocol": params.replication_protocol,
                "commit_protocol": params.commit_protocol,
                # Echo the scripted crash/recover schedule so a JSON run is
                # fully self-describing (the schedule shapes every counter
                # below; re-running without it would not reproduce them).
                "failure_schedule": [list(event) for event in params.failure_schedule],
                # Router-level transaction accounting (global ids; per-site
                # scheduler counters are aggregated separately in the
                # metrics block above).
                "begins": router_stats.begins,
                "commits": router_stats.commits,
                "pseudo_commits": router_stats.pseudo_commits,
                "aborts": router_stats.aborts,
                "cross_site_cycle_checks": router_stats.cross_site_cycle_checks,
                "failures": router_stats.site_failures,
                "recoveries": router_stats.site_recoveries,
                "site_failure_aborts": router_stats.site_failure_aborts,
                "unavailable_aborts": router_stats.unavailable_aborts,
                "read_unavailable_aborts": router_stats.read_unavailable_aborts,
                "write_unavailable_aborts": router_stats.write_unavailable_aborts,
                "cross_site_deadlock_aborts": router_stats.cross_site_deadlock_aborts,
                "cycle_sweeps": router_stats.cycle_sweeps,
                "replication_counters": simulation.router.replication_summary(),
                "commit_counters": simulation.router.commit_summary(),
            },
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    for key, value in metrics.as_dict().items():
        out.write(f"{key:20s} {value:.4f}\n")
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command == "tables":
        return _command_tables(arguments.type_name, out)
    if arguments.command == "figures":
        return _command_figures(arguments, out, parser.error)
    if arguments.command == "lint":
        return _command_lint(arguments.paths, arguments.as_json, out, parser.error)
    if arguments.command == "simulate":
        return _command_simulate(arguments, out, parser.error)
    return 2  # pragma: no cover - argparse enforces the choices above


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
