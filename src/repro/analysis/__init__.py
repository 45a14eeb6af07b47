"""Experiment harness, per-figure definitions, table regeneration, reporting.

The table regeneration (:mod:`~repro.analysis.tables`) derives tables from
executable specs, which no experiment does; it loads on first use.
"""

from typing import TYPE_CHECKING

from ..core.lazy import lazy_exports
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

if TYPE_CHECKING:
    from .tables import (PAPER_TABLE_NUMBERS, TableComparison, TableReport, compare_tables,
                         paper_table_reports, parameter_table)
else:
    __getattr__ = lazy_exports(__name__, {
        "tables": ("PAPER_TABLE_NUMBERS", "TableComparison", "TableReport",
                   "compare_tables", "paper_table_reports", "parameter_table"),
    })

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
