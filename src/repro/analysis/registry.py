"""The central experiment registry: every reproducible experiment, by id.

Each experiment is declared once, beside its builder, as a
:class:`~repro.analysis.experiments.RegisteredExperiment`: the figures in
:mod:`repro.analysis.figures`, the ablations in :mod:`repro.analysis.ablations`.
The registry only assembles those entries, plus the table regeneration, into
one index — id → entry — that the ``repro figures`` subcommand and the
benchmark harness both drive.  Iteration order is registration order (paper
order), which is what makes "reassembled in deterministic registry order" a
meaningful guarantee for the parallel runner.
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

    def __init__(self, entries: Optional[List[RegisteredExperiment]] = None):
        self._entries: Dict[str, RegisteredExperiment] = {}
        for entry in entries or []:
            self.register(entry)

    def register(self, entry: RegisteredExperiment) -> None:
        """Add one entry; duplicate ids are a programming error."""
        if entry.experiment_id in self._entries:
            raise ExperimentError(
                f"experiment {entry.experiment_id!r} is already registered"
            )
        self._entries[entry.experiment_id] = entry

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

    def runnable_ids(self) -> List[str]:
        """Ids with a spec builder (everything the parallel runner can run)."""
        return [
            entry.experiment_id
            for entry in self._entries.values()
            if entry.builder is not None
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
        """Build the spec of one runnable experiment at the given scale."""
        entry = self.entry(experiment_id)
        if entry.builder is None:
            raise ExperimentError(
                f"{experiment_id!r} is not a parameter sweep (kind "
                f"{entry.kind!r}); it has no ExperimentSpec"
            )
        return entry.builder(scale)


#: The default registry: all 20 figure experiments (paper figures, the
#: strict-2PL baseline, the four distributed experiments), the two
#: simulation ablations, and the table regeneration, which is not a
#: parameter sweep and so has neither a builder nor a check.
EXPERIMENT_REGISTRY = ExperimentRegistry(
    [
        *FIGURE_EXPERIMENTS,
        *ABLATION_EXPERIMENTS,
        RegisteredExperiment(
            experiment_id="tables",
            kind="tables",
            summary="Tables I-X: declared vs derived compatibility + parameters",
        ),
    ]
)
