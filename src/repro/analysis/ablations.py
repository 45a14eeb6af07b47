"""Ablation experiments for design choices of the reproduction.

These are not figures of the paper; each isolates one design decision of the
reproduction as a regular :class:`~repro.analysis.experiments.ExperimentSpec`
so the registry, the parallel runner and the benchmark harness treat them
exactly like the figure experiments:

* **pseudo-commit slot policy** — whether a pseudo-committed transaction
  keeps occupying a multiprogramming slot until its durable commit (the
  paper's reading) or releases it at completion;
* **write probability** — how the recoverability advantage grows with the
  fraction of writes in the read/write workload.

The scheduler-overhead ablation (raw operations/second of the scheduler with
no simulation underneath) is not a parameter sweep and stays a plain
benchmark in ``benchmarks/test_ablations.py``.  The benchmark run saves each
sweep's report as ``benchmarks/results/ablation-<name>.txt``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..core.policy import ConflictPolicy
from ..sim.params import SimulationParameters
from .experiments import ExperimentSpec, Variant
from .figures import BENCH_SCALE, ReproductionScale

__all__ = [
    "ABLATION_BUILDERS",
    "ablation_pseudo_commit_slot",
    "ablation_write_probability",
]

#: Write probabilities swept by the write-probability ablation.
WRITE_PROBABILITIES: Tuple[float, ...] = (0.1, 0.3, 0.5)


def ablation_pseudo_commit_slot(
    scale: ReproductionScale = BENCH_SCALE,
) -> ExperimentSpec:
    """Pseudo-commit slot policy at mpl=50 (RW model, infinite resources)."""
    return ExperimentSpec(
        experiment_id="ablation-pseudo-commit-slot",
        title="Ablation: pseudo-commit slot policy (RW model, mpl=50)",
        workload="readwrite",
        base_params=SimulationParameters(
            total_completions=scale.total_completions,
            warmup_completions=scale.warmup_completions,
            policy=ConflictPolicy.RECOVERABILITY,
            seed=17,
        ),
        mpl_levels=(50,),
        variants=(
            Variant(label="holds-slot", overrides={"pseudo_commit_holds_slot": True}),
            Variant(label="releases-slot", overrides={"pseudo_commit_holds_slot": False}),
        ),
        metrics=("throughput", "response_time", "pseudo_commit_fraction"),
        runs=scale.runs,
        description="Does a pseudo-committed transaction hold its "
        "multiprogramming slot until the durable commit (the paper's "
        "reading) or release it at completion?  The slot policy shapes the "
        "effective multiprogramming level, so throughput and response time "
        "are the metrics of interest.",
    )


def ablation_write_probability(
    scale: ReproductionScale = BENCH_SCALE,
) -> ExperimentSpec:
    """Semantic-policy gain vs write probability at mpl=100 (RW model)."""
    variants = tuple(
        Variant(
            label=f"Pw={probability}/{policy.value}",
            overrides={"write_probability": probability, "policy": policy},
        )
        for probability in WRITE_PROBABILITIES
        # Only the two table-driven policies run: 2PL at mpl=100 thrashes
        # and would dominate the suite's wall-clock without informing this
        # comparison.
        for policy in (ConflictPolicy.COMMUTATIVITY, ConflictPolicy.RECOVERABILITY)
    )
    return ExperimentSpec(
        experiment_id="ablation-write-probability",
        title="Ablation: recoverability gain vs write probability (RW model, mpl=100)",
        workload="readwrite",
        base_params=SimulationParameters(
            total_completions=scale.total_completions,
            warmup_completions=scale.warmup_completions,
            seed=23,
        ),
        mpl_levels=(100,),
        variants=variants,
        metrics=("throughput",),
        runs=scale.runs,
        description="More writes means more non-commuting pairs, which is "
        "exactly where recoverability helps: the relative gain over "
        "commutativity should not shrink as the write probability grows.",
    )


#: Ablation builders in presentation order, keyed by experiment id.
ABLATION_BUILDERS: Dict[str, Callable[[ReproductionScale], ExperimentSpec]] = {
    "ablation-pseudo-commit-slot": ablation_pseudo_commit_slot,
    "ablation-write-probability": ablation_write_probability,
}
