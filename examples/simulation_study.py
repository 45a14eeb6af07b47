"""Run a scaled-down version of the paper's simulation study from the API.

This example drives the same experiment harness the benchmark suite uses, at a
reduced scale so it finishes in well under a minute, and prints the paper-style
series for:

* Figure 4  — read/write model, infinite resources (commutativity vs
  recoverability throughput), and
* Figure 14 — abstract-data-type model, infinite resources, Pc=4 and
  Pr in {0, 4, 8}.

Pass ``--scale smoke|bench|paper`` to change the amount of simulated work, or
``--figure figure-10`` (any id from
``repro.analysis.EXPERIMENT_REGISTRY.runnable_ids()``) to reproduce a
different experiment.

Run with (after ``pip install -e .`` from the repository root)::

    python examples/simulation_study.py
"""

import argparse

from repro.analysis import (
    BENCH_SCALE,
    EXPERIMENT_REGISTRY,
    PAPER_SCALE,
    SMOKE_SCALE,
    render_result,
    run_experiment,
)

_SCALES = {"smoke": SMOKE_SCALE, "bench": BENCH_SCALE, "paper": PAPER_SCALE}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", choices=sorted(_SCALES), default="smoke",
        help="how much simulated work to do per experiment point",
    )
    parser.add_argument(
        "--figure", action="append", choices=EXPERIMENT_REGISTRY.runnable_ids(), default=None,
        help="experiment id(s) to reproduce (default: figure-4 and figure-14)",
    )
    arguments = parser.parse_args()
    scale = _SCALES[arguments.scale]
    figure_ids = arguments.figure or ["figure-4", "figure-14"]

    for figure_id in figure_ids:
        spec = EXPERIMENT_REGISTRY.spec(figure_id, scale)
        print(f"running {figure_id} at scale {scale.name!r} "
              f"({scale.total_completions} completions/point, {scale.runs} run(s)/point)...")
        result = run_experiment(spec, progress=lambda line: print("  " + line))
        print()
        print(render_result(result))
        print()


if __name__ == "__main__":
    main()
