"""Experiment harness, per-figure definitions, table regeneration, reporting."""

from .ablations import ABLATION_BUILDERS, ablation_pseudo_commit_slot, ablation_write_probability
from .experiments import (
    AveragedMetrics,
    ExperimentResult,
    ExperimentSpec,
    Variant,
    run_experiment,
)
from .figures import (
    BENCH_SCALE,
    FIGURE_BUILDERS,
    PAPER_SCALE,
    SMOKE_SCALE,
    ReproductionScale,
    all_figure_ids,
    figure_spec,
)
from .registry import EXPERIMENT_REGISTRY, ExperimentRegistry, RegisteredExperiment
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
    "ABLATION_BUILDERS",
    "ablation_pseudo_commit_slot",
    "ablation_write_probability",
    "AveragedMetrics",
    "EXPERIMENT_REGISTRY",
    "ExperimentRegistry",
    "ExperimentResult",
    "ExperimentSpec",
    "RegisteredExperiment",
    "Variant",
    "run_experiment",
    "BENCH_SCALE",
    "PAPER_SCALE",
    "SMOKE_SCALE",
    "FIGURE_BUILDERS",
    "ReproductionScale",
    "all_figure_ids",
    "figure_spec",
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
