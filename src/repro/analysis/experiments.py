"""Experiment harness: parameter sweeps, multi-run averaging, result objects.

The paper's figures all have the same shape: one or more *variants* (e.g.
commutativity vs recoverability, or P_r = 0/4/8) swept over a range of
multiprogramming levels, each point averaged over several runs.  An
:class:`ExperimentSpec` captures that shape declaratively; :func:`run_experiments`
executes a batch of them, and the reporting module renders each
:class:`ExperimentResult` as the paper-style series.

Every ``(variant, mpl_level, run_index)`` point is an independent seeded
simulation named by :func:`point_key`: a :class:`~repro.sim.Simulation` built
for the point, run once and dropped.  A batch runs each distinct point once
and can fan the points out over a ``ProcessPoolExecutor`` (``workers >
1``); its results are identical, point for point and byte for byte, to the
serial ``workers=1`` path.
"""

from __future__ import annotations

import dataclasses
import gc
import operator
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from ..core.errors import ExperimentError
from ..sim.metrics import RunMetrics
from ..sim.params import SimulationParameters
from ..sim.simulator import Simulation

if TYPE_CHECKING:
    from .figures import ReproductionScale

__all__ = [
    "Variant",
    "AveragedMetrics",
    "ExperimentSpec",
    "ExperimentResult",
    "RegisteredExperiment",
    "unmet",
    "point_key",
    "run_experiment",
    "run_experiments",
]


@dataclass(frozen=True)
class Variant:
    """One curve of a figure: a label plus parameter overrides."""

    label: str
    overrides: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class AveragedMetrics:
    """Metrics of one (variant, mpl) point averaged over the runs."""

    runs: int
    throughput: float
    response_time: float
    blocking_ratio: float
    restart_ratio: float
    cycle_check_ratio: float
    abort_length: float
    completions: float
    pseudo_commit_fraction: float
    #: Simulated seconds summed over the point's runs — deterministic, like
    #: the counters.
    simulated_time: float = 0.0
    #: Raw deterministic counters summed over the point's runs (the
    #: :meth:`~repro.sim.metrics.RunMetrics.counters` set, including the
    #: ``resource_*`` and ``replication_*`` families), frozen as sorted
    #: pairs; benchmark shape assertions read protocol overheads from here.
    counters: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def from_runs(cls, metrics: Sequence[RunMetrics]) -> "AveragedMetrics":
        """Average the derived metrics of several runs (plain mean)."""
        if not metrics:
            raise ExperimentError("cannot average zero runs")
        count = len(metrics)

        def mean(values: Sequence[float]) -> float:
            return sum(values) / count

        summed: Dict[str, float] = {}
        for run in metrics:
            for name, value in run.counters().items():
                summed[name] = summed.get(name, 0) + value

        return cls(
            counters=tuple(sorted(summed.items())),
            simulated_time=sum(m.simulated_time for m in metrics),
            runs=count,
            throughput=mean([m.throughput for m in metrics]),
            response_time=mean([m.response_time for m in metrics]),
            blocking_ratio=mean([m.blocking_ratio for m in metrics]),
            restart_ratio=mean([m.restart_ratio for m in metrics]),
            cycle_check_ratio=mean([m.cycle_check_ratio for m in metrics]),
            abort_length=mean([m.abort_length for m in metrics]),
            completions=mean([float(m.completions) for m in metrics]),
            pseudo_commit_fraction=mean(
                [
                    (m.pseudo_commits / m.completions) if m.completions else 0.0
                    for m in metrics
                ]
            ),
        )

    def metric(self, name: str) -> float:
        """Look a metric up by its report name."""
        try:
            return float(getattr(self, name))
        except (AttributeError, TypeError):
            raise ExperimentError(f"unknown metric {name!r}") from None

    def counter(self, name: str, default: float = 0.0) -> float:
        """One raw counter summed over the point's runs (0.0 if absent)."""
        for key, value in self.counters:
            if key == name:
                return value
        return default


@dataclass
class ExperimentSpec:
    """Declarative description of one figure-style experiment."""

    experiment_id: str
    title: str
    workload: str
    base_params: SimulationParameters
    mpl_levels: Sequence[int]
    variants: Sequence[Variant]
    #: Metric names (attributes of :class:`AveragedMetrics`) the report shows.
    metrics: Sequence[str] = ("throughput",)
    #: Number of independent runs (different seeds) per point.
    runs: int = 1
    #: Free-text description shown at the top of the report.
    description: str = ""

    def validate(self) -> None:
        if not self.mpl_levels:
            raise ExperimentError(f"{self.experiment_id}: no multiprogramming levels")
        if not self.variants:
            raise ExperimentError(f"{self.experiment_id}: no variants")
        if self.runs <= 0:
            raise ExperimentError(f"{self.experiment_id}: runs must be positive")
        labels = [variant.label for variant in self.variants]
        if len(labels) != len(set(labels)):
            raise ExperimentError(f"{self.experiment_id}: duplicate variant labels")


@dataclass
class ExperimentResult:
    """All points of one experiment, keyed by variant label and mpl level."""

    spec: ExperimentSpec
    points: Dict[str, Dict[int, AveragedMetrics]]

    def series(self, variant_label: str, metric: str) -> List[Tuple[int, float]]:
        """The (mpl, value) series of one variant for one metric."""
        try:
            per_level = self.points[variant_label]
        except KeyError:
            raise ExperimentError(
                f"{self.spec.experiment_id}: unknown variant {variant_label!r}"
            ) from None
        return [(level, per_level[level].metric(metric)) for level in sorted(per_level)]

    def peak(self, variant_label: str, metric: str = "throughput") -> Tuple[int, float]:
        """The (mpl, value) point where the metric peaks for a variant."""
        series = self.series(variant_label, metric)
        return max(series, key=lambda pair: pair[1])

    def variant_labels(self) -> List[str]:
        return [variant.label for variant in self.spec.variants]

    def counter_total(self, variant_label: str, counter: str) -> float:
        """One raw counter summed over every mpl level of a variant."""
        try:
            per_level = self.points[variant_label]
        except KeyError:
            raise ExperimentError(
                f"{self.spec.experiment_id}: unknown variant {variant_label!r}"
            ) from None
        return sum(point.counter(counter) for point in per_level.values())

    def improvement(
        self, better: str, baseline: str, metric: str = "throughput", mpl: Optional[int] = None
    ) -> float:
        """Relative improvement ``(better - baseline) / baseline`` at one mpl
        level (default: the level where the baseline peaks)."""
        if mpl is None:
            mpl = self.peak(baseline, metric)[0]
        better_value = dict(self.series(better, metric))[mpl]
        baseline_value = dict(self.series(baseline, metric))[mpl]
        if baseline_value == 0:
            return 0.0
        return (better_value - baseline_value) / baseline_value


@dataclass(frozen=True)
class RegisteredExperiment:
    """One experiment, declared once: its id, category, builder, claim and check.

    ``paper_claim`` is what the paper reports for a figure, in one sentence.
    ``check`` returns the shape expectations a result of the sweep fails,
    each with its numbers (``[]`` when the shape holds): ``repro figures``
    prints its verdict under each report and the benchmark suite requires
    it to be empty.
    """

    experiment_id: str
    kind: str  # "figure" | "baseline" | "distributed" | "ablation"
    summary: str
    builder: Callable[["ReproductionScale"], ExperimentSpec]
    check: Callable[[ExperimentResult], List[str]]
    paper_claim: str = ""


#: One expected relation: ``(what, value, relation, bound)``.
Expectation = Tuple[str, float, str, float]

_RELATIONS: Dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<=": operator.le,
    "==": operator.eq,
}


def unmet(*expectations: Expectation) -> List[str]:
    """The expectations ``(what, value, relation, bound)`` that do not hold.

    Each comes back as ``what`` with its numbers.  ``relation`` is one of
    ``>``, ``>=``, ``<=`` and ``==``; a NaN on either side fails, as it
    would in an ``assert``.
    """
    return [
        f"{what}: got {value:.4g}, expected {relation} {bound:.4g}"
        for what, value, relation, bound in expectations
        if not _RELATIONS[relation](value, bound)
    ]


#: One simulation to run: its parameters and its workload kind.
Task = Tuple[SimulationParameters, str]


def _simulate_point(task: Task) -> RunMetrics:
    """Run one ``(params, workload)`` point; module-level so it pickles."""
    params, workload_kind = task
    metrics = Simulation(params, workload_kind=workload_kind).run()
    # The dropped system is cyclic garbage (its components point back at one
    # another): left to the collector's schedule it outlives the next point's
    # construction, and the process holds two systems at its peak.
    gc.collect()
    return metrics


def point_key(params: SimulationParameters, workload: str) -> Tuple:
    """What names one simulation: points with equal keys are the same run."""
    return (workload, dataclasses.astuple(params))


def _point_tasks(spec: ExperimentSpec) -> List[Task]:
    """Every (variant, mpl, run) point in deterministic spec order."""
    tasks: List[Task] = []
    for variant in spec.variants:
        for mpl_level in spec.mpl_levels:
            for run_index in range(spec.runs):
                params = spec.base_params.replace(
                    mpl_level=mpl_level,
                    seed=spec.base_params.seed + run_index,
                    **dict(variant.overrides),
                )
                tasks.append((params, spec.workload))
    return tasks


def run_experiments(
    specs: Sequence[ExperimentSpec],
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
) -> Iterator[ExperimentResult]:
    """Execute a batch of experiments, each distinct point once.

    Yields each spec's :class:`ExperimentResult` in spec order as soon as its
    points are in; a point (see :func:`point_key`) runs where the batch first
    names it.  ``progress`` (if given) is called with a human-readable line
    after each (variant, mpl) point of each spec, as a lone
    :func:`run_experiment` per spec would call it.

    ``workers`` fans the distinct points out over one ``ProcessPoolExecutor``.
    Every point is an independent simulation fully determined by
    ``(parameters, seed)``, so the results are identical for every worker
    count; ``workers=1`` (the default) runs the exact serial path with no
    executor and no pickling.
    """
    for spec in specs:
        spec.validate()
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")
    keyed = [[(point_key(*task), task) for task in _point_tasks(spec)] for spec in specs]
    # Equal keys are equal tasks, so each key keeps its first position.
    distinct = dict(pair for tasks in keyed for pair in tasks)
    with ExitStack() as stack:
        if workers == 1:
            metrics: Iterator[RunMetrics] = map(_simulate_point, distinct.values())
        else:
            # Imported on use: a bare import of the package stays free of the pool.
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            metrics = pool.map(_simulate_point, distinct.values())
        arriving = zip(distinct, metrics)
        done: Dict[Tuple, RunMetrics] = {}

        def metrics_of(tasks: List[Tuple[Tuple, Task]]) -> Iterator[RunMetrics]:
            # Pulled lazily: the serial path interleaves simulation and progress.
            for key, _ in tasks:
                while key not in done:
                    ran, run_metrics = next(arriving)
                    done[ran] = run_metrics
                yield done[key]

        for spec, tasks in zip(specs, keyed):
            yield _assemble(spec, metrics_of(tasks), progress)


def run_experiment(
    spec: ExperimentSpec,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
) -> ExperimentResult:
    """Execute every (variant, mpl, run) point of one experiment: a batch of
    one (see :func:`run_experiments`)."""
    (result,) = run_experiments([spec], progress, workers)
    return result


def _assemble(
    spec: ExperimentSpec,
    metrics_iter: Iterator[RunMetrics],
    progress: Optional[Callable[[str], None]],
) -> ExperimentResult:
    """Fold the per-point metrics stream back into an :class:`ExperimentResult`.

    ``metrics_iter`` must yield one :class:`RunMetrics` per (variant, mpl,
    run) point in the order :func:`_point_tasks` produced them; consuming it
    lazily keeps the serial path's interleaving of simulation work and
    progress callbacks.
    """
    points: Dict[str, Dict[int, AveragedMetrics]] = {}
    for variant in spec.variants:
        per_level: Dict[int, AveragedMetrics] = {}
        for mpl_level in spec.mpl_levels:
            run_results = [next(metrics_iter) for _ in range(spec.runs)]
            per_level[mpl_level] = AveragedMetrics.from_runs(run_results)
            if progress is not None:
                progress(
                    f"{spec.experiment_id} {variant.label} mpl={mpl_level} "
                    f"throughput={per_level[mpl_level].throughput:.2f}"
                )
        points[variant.label] = per_level
    return ExperimentResult(spec=spec, points=points)
