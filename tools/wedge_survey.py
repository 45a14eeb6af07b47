"""Survey registry experiments for runs that stall instead of finishing.

Every (variant, mpl) point of each selected experiment runs at bench scale
once per seed.  A run whose stall valve fires (no completion within the
simulator's event budget, or an event queue that drains first) is a wedge,
printed as one row: experiment, variant, mpl, seed and the head of the stall
message — the valve's line, then the first lines of the router's
``stall_report()``.  The exit status is 1 if any run wedged.

    python tools/wedge_survey.py --only figure-4-commit --seeds 401-440
    python tools/wedge_survey.py --workers 3      # the whole registry
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import (  # noqa: E402  (path bootstrap above)
    BENCH_SCALE, EXPERIMENT_REGISTRY, point_key,
)
from repro.core.errors import SimulationError  # noqa: E402
from repro.sim import Simulation, SimulationParameters  # noqa: E402

#: Lines of a stall message shown per wedge.
MESSAGE_LINES = 4

#: ``(experiment id, variant label, mpl, seed, parameters, workload kind)``.
Point = Tuple[str, str, int, int, SimulationParameters, str]


def parse_seeds(text: str) -> List[int]:
    """Seeds from ``"401-440"``, ``"1,7,411"`` or a mix of both.

    A reversed range such as ``"5-3"`` is rejected: it holds no seeds, and a
    survey of no runs would report clean.
    """
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        first, last = int(low), int(high or low)
        if last < first:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds.extend(range(first, last + 1))
    return seeds


def points(experiment_ids: Iterable[str], seeds: Sequence[int]) -> Iterator[Point]:
    """Every distinct (experiment, variant, mpl, seed) run, in registry order.

    Figures that read different metrics of the same simulations (4/5/6/7,
    for one) share their runs: each distinct run is made once, under the
    first experiment that names it.
    """
    seen = set()
    for experiment_id in experiment_ids:
        spec = EXPERIMENT_REGISTRY.spec(experiment_id, BENCH_SCALE)
        for variant in spec.variants:
            for mpl in spec.mpl_levels:
                for seed in seeds:
                    params = spec.base_params.replace(
                        mpl_level=mpl, seed=seed, **dict(variant.overrides)
                    )
                    key = point_key(params, spec.workload)
                    if key not in seen:
                        seen.add(key)
                        yield experiment_id, variant.label, mpl, seed, params, spec.workload


def run_point(point: Point) -> Optional[str]:
    """``None`` when the run finishes, else the head of its stall message."""
    params, workload = point[4], point[5]
    try:
        Simulation(params, workload_kind=workload).run()
    except SimulationError as stall:
        return " | ".join(line.strip() for line in str(stall).splitlines()[:MESSAGE_LINES])
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="ID",
                        choices=EXPERIMENT_REGISTRY.ids(),
                        help="experiment ids to survey (default: all)")
    parser.add_argument("--seeds", type=parse_seeds, default="401-440",
                        help="seeds, e.g. 401-440 or 1,7,411 (default: 401-440)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (rows stay in registry order)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    todo = list(points(args.only or EXPERIMENT_REGISTRY.ids(), args.seeds))
    if args.workers > 1:
        with ProcessPoolExecutor(args.workers) as pool:
            wedges = report(todo, pool.map(run_point, todo))
    else:
        wedges = report(todo, map(run_point, todo))
    print(f"{wedges} of {len(todo)} runs wedged" if wedges else f"clean: {len(todo)} runs")
    return 1 if wedges else 0


def report(todo: Sequence[Point], stalls: Iterable[Optional[str]]) -> int:
    """Print one row per wedge as results arrive; return how many wedged."""
    print("experiment\tvariant\tmpl\tseed\tstall", flush=True)
    wedges = 0
    for point, stall in zip(todo, stalls):
        if stall is not None:
            wedges += 1
            print("\t".join([*map(str, point[:4]), stall]), flush=True)
    return wedges


if __name__ == "__main__":
    sys.exit(main())
