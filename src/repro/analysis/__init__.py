"""Experiment harness, per-figure definitions, table regeneration, reporting."""

from .ablations import ablation_pseudo_commit_slot, ablation_write_probability
from .experiments import (
    AveragedMetrics,
    ExperimentResult,
    ExperimentSpec,
    RegisteredExperiment,
    Variant,
    point_key,
    run_experiment,
    run_experiments,
)
from .figures import (
    BENCH_SCALE,
    PAPER_SCALE,
    SMOKE_SCALE,
    ReproductionScale,
)
from .registry import EXPERIMENT_REGISTRY, ExperimentRegistry
from .reporting import render_result, render_series, render_summary
from .tables import (
    PAPER_TABLE_NUMBERS,
    TableComparison,
    TableReport,
    compare_tables,
    paper_table_reports,
    parameter_table,
)

__all__ = [
    "ablation_pseudo_commit_slot",
    "ablation_write_probability",
    "AveragedMetrics",
    "EXPERIMENT_REGISTRY",
    "ExperimentRegistry",
    "ExperimentResult",
    "ExperimentSpec",
    "RegisteredExperiment",
    "Variant",
    "point_key",
    "run_experiment",
    "run_experiments",
    "BENCH_SCALE",
    "PAPER_SCALE",
    "SMOKE_SCALE",
    "ReproductionScale",
    "render_result",
    "render_series",
    "render_summary",
    "PAPER_TABLE_NUMBERS",
    "TableComparison",
    "TableReport",
    "compare_tables",
    "paper_table_reports",
    "parameter_table",
]
