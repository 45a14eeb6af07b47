"""The central experiment registry: every reproducible experiment, by id.

Each experiment is declared once, beside its builder, as a
:class:`~repro.analysis.experiments.RegisteredExperiment`: the figures in
:mod:`repro.analysis.figures`, the ablations in :mod:`repro.analysis.ablations`.
The registry only assembles those entries, all parameter sweeps (the tables
come from ``repro tables``), into one index — id → entry — that the ``repro
figures`` subcommand and the benchmark harness both drive.  Iteration order
is registration order (paper order), which is what makes "reassembled in
deterministic registry order" a meaningful guarantee for the parallel runner.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..core.errors import ExperimentError
from .ablations import ABLATION_EXPERIMENTS
from .experiments import ExperimentSpec, RegisteredExperiment
from .figures import BENCH_SCALE, FIGURE_EXPERIMENTS, ReproductionScale

__all__ = [
    "ExperimentRegistry",
    "EXPERIMENT_REGISTRY",
]


class ExperimentRegistry:
    """Ordered id → :class:`RegisteredExperiment` index."""

    def __init__(self, entries: List[RegisteredExperiment]):
        self._entries: Dict[str, RegisteredExperiment] = {}
        for entry in entries:
            # A duplicate id is a programming error.
            if self._entries.setdefault(entry.experiment_id, entry) is not entry:
                raise ExperimentError(f"experiment {entry.experiment_id!r} is registered twice")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, experiment_id: object) -> bool:
        return experiment_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RegisteredExperiment]:
        return iter(self._entries.values())

    def ids(self, kind: Optional[str] = None) -> List[str]:
        """Every registered id in registration (paper) order."""
        return [
            entry.experiment_id
            for entry in self._entries.values()
            if kind is None or entry.kind == kind
        ]

    def entry(self, experiment_id: str) -> RegisteredExperiment:
        """Look one entry up, with the known ids in the error message."""
        try:
            return self._entries[experiment_id]
        except KeyError:
            raise ExperimentError(
                f"unknown experiment {experiment_id!r}; known: {sorted(self._entries)}"
            ) from None

    def spec(
        self, experiment_id: str, scale: ReproductionScale = BENCH_SCALE
    ) -> ExperimentSpec:
        """Build the spec of one experiment at the given scale."""
        return self.entry(experiment_id).builder(scale)


#: The default registry: all 20 figure experiments (paper figures, the
#: strict-2PL baseline, the four distributed experiments) and the two
#: simulation ablations.
EXPERIMENT_REGISTRY = ExperimentRegistry([*FIGURE_EXPERIMENTS, *ABLATION_EXPERIMENTS])
