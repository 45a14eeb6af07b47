"""Command-line interface for the reproduction.

The CLI exposes the experiment harness without writing any Python:

``python -m repro tables [--type stack]``
    regenerate the compatibility tables (Tables I-VIII) and the parameter
    table (Tables IX-X), comparing declared and derived entries;
``python -m repro figures [--list] [--only ID ...] [--scale smoke|bench|paper] [--workers N] [--out DIR]``
    list the experiment registry (the figures and the ablations), or run a
    selection of them as one batch, each distinct simulation once, and print
    (and optionally save) each paper-style report, followed on stdout by
    whether the expected shape held; every worker count produces
    byte-identical results;
``python -m repro simulate [--mpl 50 --policy recoverability ...]``
    run a single simulation point and print its metrics; ``--policy 2pl``
    selects the strict two-phase-locking baseline backend.  ``repro simulate
    --help`` is the flag reference: each flag that sets a parameter is declared,
    with its help and choices, on its ``SimulationParameters`` field;
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
import dataclasses
import json
import pathlib
import re
import sys
import typing
from typing import Dict, Optional, Sequence, Tuple

from .analysis import (
    BENCH_SCALE,
    EXPERIMENT_REGISTRY,
    PAPER_SCALE,
    SMOKE_SCALE,
    compare_tables,
    parameter_table,
    render_result,
    run_experiments,
)
from .adts import paper_types
from .core.errors import SimulationError
from .distributed import RouterStatistics
from .sim.params import SimulationParameters
from .sim.routing import CentralCoordinator
from .sim.simulator import Simulation

_SCALES = {"smoke": SMOKE_SCALE, "bench": BENCH_SCALE, "paper": PAPER_SCALE}

#: The ``SimulationParameters`` fields ``repro simulate`` exposes; each field
#: declares its flag, help and choices (``sim/params.py``).
_FLAG_FIELDS = [
    declared for declared in dataclasses.fields(SimulationParameters) if "flag" in declared.metadata
]
#: Where ``repro simulate``'s default is not the field's: a short run, and a
#: replication derived from ``--sites`` (see :func:`_simulation_parameters`).
_SIMULATE_DEFAULTS = {"total_completions": 500, "replication": None}
#: The option that sets each field, to name it in a usage error.
_FIELD_FLAGS = {
    **{declared.name: declared.metadata["flag"] for declared in _FLAG_FIELDS},
    "failure_schedule": "--fail-at/--recover-at",
    "fair_scheduling": "--unfair",
}


def _parse_time_site(text: str) -> Tuple[float, int]:
    """Parse one ``--fail-at``/``--recover-at`` ``TIME:SITE`` entry."""
    try:
        time_text, site_text = text.split(":", 1)
        return float(time_text), int(site_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects TIME:SITE (e.g. 2.5:1), got {text!r}") from None


def _parse_site_units(text: str) -> Tuple[int, ...]:
    """Parse ``--site-units 2,1,1,4`` into a per-site tuple."""
    try:
        return tuple(int(entry) for entry in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers (e.g. 2,1,1,4), got {text!r}"
        ) from None


def _option_type(name: str):
    """What the option text of field ``name`` converts by: the ``U0,U1,...``
    parser for ``site_units``, else the field's annotation unwrapped from
    ``Optional`` (an absent option keeps the ``None`` default)."""
    if name == "site_units":
        return _parse_site_units
    annotation = typing.get_type_hints(SimulationParameters)[name]
    return next((arg for arg in typing.get_args(annotation) if arg is not type(None)), annotation)


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The ``repro`` parser and its subcommand parsers by name."""
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
                         choices=EXPERIMENT_REGISTRY.ids(),
                         help="restrict to these experiment ids (default: all)")
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

    simulate = subparsers.add_parser(
        "simulate",
        help="run a single simulation point",
        description="Run one simulation point. Here --completions defaults to "
                    "500, and --replication to single with one site and "
                    "copies with several.",
    )
    simulate.add_argument("--workload", choices=["readwrite", "adt"], default="readwrite")
    for declared in _FLAG_FIELDS:
        options = dict(declared.metadata)
        flag = options.pop("flag")
        if "choices" not in options:
            # The metavar argparse would derive from the flag, not the field.
            options.setdefault("metavar", flag[2:].upper().replace("-", "_"))
            options["type"] = _option_type(declared.name)
        default = _SIMULATE_DEFAULTS.get(declared.name, declared.default)
        simulate.add_argument(flag, dest=declared.name, default=default, **options)
    simulate.add_argument("--unfair", action="store_true",
                          help="disable fair scheduling at the object managers")
    simulate.add_argument("--fail-at", action="append", default=[], metavar="TIME:SITE",
                          type=_parse_time_site,
                          help="crash SITE at simulated TIME seconds (repeatable)")
    simulate.add_argument("--recover-at", action="append", default=[], metavar="TIME:SITE",
                          type=_parse_time_site,
                          help="recover SITE at simulated TIME seconds (repeatable)")
    simulate.add_argument("--json", action="store_true",
                          help="emit machine-readable deterministic metrics as JSON")
    # argparse reads a value that starts with "-" as an option unless it is a
    # plain number; "--fail-at -2:1" must reach validate()'s negative-time error.
    simulate._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser, subparsers.choices


def _command_tables(type_name: Optional[str], out) -> int:
    names = [type_name] if type_name else paper_types()
    for name in names:
        out.write(compare_tables(name).render() + "\n\n")
    if type_name is None:
        out.write(parameter_table() + "\n")
    return 0


def _command_figures(arguments, out, error) -> int:
    """List the registry, or run the selected experiments as one batch."""
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
    experiment_ids = arguments.only or EXPERIMENT_REGISTRY.ids()
    scale = _SCALES[arguments.scale]
    results = run_experiments(
        [EXPERIMENT_REGISTRY.spec(experiment_id, scale) for experiment_id in experiment_ids],
        progress=lambda line: out.write("  " + line + "\n"),
        workers=arguments.workers,
    )
    for experiment_id, result in zip(experiment_ids, results):
        report = render_result(result)
        failed = EXPERIMENT_REGISTRY.entry(experiment_id).check(result)
        held = "not held: " + "; ".join(failed) if failed else "held"
        out.write(f"{report}\nshape ({scale.name} scale): {held}\n")
        if arguments.out is not None:
            arguments.out.mkdir(parents=True, exist_ok=True)
            (arguments.out / f"{experiment_id}.txt").write_text(report + "\n")
    return 0


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


def _simulation_parameters(arguments) -> SimulationParameters:
    """The parameters ``repro simulate``'s parsed options describe."""
    values = {declared.name: getattr(arguments, declared.name) for declared in _FLAG_FIELDS}
    if values["replication"] is None:
        values["replication"] = "single" if values["site_count"] == 1 else "copies"
    events = [(time, "fail", site) for time, site in arguments.fail_at]
    events += [(time, "recover", site) for time, site in arguments.recover_at]
    events.sort(key=lambda event: (event[0], event[2], event[1]))
    return SimulationParameters(
        fair_scheduling=not arguments.unfair, failure_schedule=tuple(events), **values
    )


def _command_simulate(arguments, out, error) -> int:
    try:
        params = _simulation_parameters(arguments)
    except SimulationError as exc:
        # Name the option of each field the message mentions, in its order.
        flags = dict.fromkeys(
            _FIELD_FLAGS[word] for word in re.findall(r"\w+", str(exc)) if word in _FIELD_FLAGS
        )
        error(", ".join(flags) + f": {exc}" if flags else str(exc))
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
    parser, commands = _build_parser()
    arguments = parser.parse_args(argv)
    # A usage error shows the usage of the subcommand it concerns.
    error = commands[arguments.command].error
    if arguments.command == "tables":
        return _command_tables(arguments.type_name, out)
    if arguments.command == "figures":
        return _command_figures(arguments, out, error)
    if arguments.command == "lint":
        return _command_lint(arguments.paths, arguments.as_json, out, error)
    if arguments.command == "simulate":
        return _command_simulate(arguments, out, error)
    return 2  # pragma: no cover - argparse enforces the choices above


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
