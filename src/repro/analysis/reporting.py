"""Text rendering of experiment results in the paper's row/series format.

The paper presents each figure as a set of curves over the multiprogramming
level.  :func:`render_result` prints the same information as an aligned text
table — one row per mpl level, one column per (variant, metric) pair — plus a
short summary of the headline comparisons (peak throughput per variant and
relative improvement).  The benchmark run saves each report as
``benchmarks/results/<experiment id>.txt``.  What the paper reports for the
same figure, and whether a result has the expected shape, belong to the
registry entry (``paper_claim`` and ``check``), not to the report.
"""

from __future__ import annotations

from typing import List, Tuple

from .experiments import ExperimentResult

__all__ = ["render_result", "render_summary", "render_series"]

_METRIC_SHORT_NAMES = {
    "throughput": "thr",
    "response_time": "resp",
    "blocking_ratio": "BR",
    "restart_ratio": "RR",
    "cycle_check_ratio": "CCR",
    "abort_length": "AL",
    "pseudo_commit_fraction": "pseudo",
    "completions": "done",
}


def _column_label(variant: str, metric: str) -> str:
    return f"{variant}:{_METRIC_SHORT_NAMES.get(metric, metric)}"


def render_series(result: ExperimentResult) -> str:
    """The per-level table of every (variant, metric) series."""
    spec = result.spec
    columns: List[Tuple[str, str]] = [
        (variant.label, metric) for variant in spec.variants for metric in spec.metrics
    ]
    header_cells = ["mpl"] + [_column_label(v, m) for v, m in columns]
    widths = [max(len(cell), 10) for cell in header_cells]
    lines = ["".join(cell.ljust(width + 2) for cell, width in zip(header_cells, widths))]
    for level in sorted(spec.mpl_levels):
        row_cells = [str(level)]
        for variant_label, metric in columns:
            value = dict(result.series(variant_label, metric))[level]
            row_cells.append(f"{value:.3f}")
        lines.append(
            "".join(cell.ljust(width + 2) for cell, width in zip(row_cells, widths))
        )
    return "\n".join(lines)


def render_summary(result: ExperimentResult) -> str:
    """Peak values per variant plus improvements over the first variant."""
    spec = result.spec
    primary_metric = spec.metrics[0]
    lines = [f"summary ({primary_metric}):"]
    baseline_label = spec.variants[0].label
    for variant in spec.variants:
        peak_level, peak_value = result.peak(variant.label, primary_metric)
        lines.append(
            f"  {variant.label}: peak {peak_value:.3f} at mpl={peak_level}"
        )
    for variant in spec.variants[1:]:
        improvement = result.improvement(
            better=variant.label, baseline=baseline_label, metric=primary_metric
        )
        lines.append(
            f"  {variant.label} vs {baseline_label} at the {baseline_label} peak: "
            f"{improvement * 100:+.1f}%"
        )
    return "\n".join(lines)


def render_result(result: ExperimentResult, include_summary: bool = True) -> str:
    """Full report for one experiment: header, series table, summary."""
    spec = result.spec
    lines = [
        f"{spec.experiment_id}: {spec.title}",
        f"workload={spec.workload}  runs/point={spec.runs}  "
        f"completions/run={spec.base_params.total_completions}",
    ]
    if spec.description:
        lines.append(spec.description)
    lines.append("")
    lines.append(render_series(result))
    if include_summary:
        lines.append("")
        lines.append(render_summary(result))
    return "\n".join(lines)
