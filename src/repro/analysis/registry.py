"""The central experiment registry: every reproducible experiment, by id.

The figure builders (:mod:`repro.analysis.figures`), the ablation builders
(:mod:`repro.analysis.ablations`) and the table regeneration all used to be
reachable only through their own module-level entry points; the registry
gives them one declarative index — id → builder — that the ``repro figures``
subcommand and the benchmark harness both drive.
Iteration order is registration order (paper order), which is what makes
"reassembled in deterministic registry order" a meaningful guarantee for the
parallel runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from ..core.errors import ExperimentError
from .ablations import ABLATION_BUILDERS
from .experiments import ExperimentSpec
from .figures import BENCH_SCALE, FIGURE_BUILDERS, SMOKE_SCALE, ReproductionScale

__all__ = [
    "RegisteredExperiment",
    "ExperimentRegistry",
    "EXPERIMENT_REGISTRY",
]

#: The four multi-site experiments layered on Figure 4's workload.
_DISTRIBUTED_IDS = frozenset(
    {
        "figure-4-sites",
        "figure-4-sites-scaling",
        "figure-4-protocols",
        "figure-4-commit",
    }
)


@dataclass(frozen=True)
class RegisteredExperiment:
    """One registry entry: an experiment id, its category, and its builder.

    ``builder`` is ``None`` for entries that are not parameter sweeps (the
    table regeneration); the CLI handles those through their own harness.
    ``paper_claim`` is what the paper reports for a figure, in one sentence:
    data for readers of the registry, which no report renders.
    """

    experiment_id: str
    kind: str  # "figure" | "baseline" | "distributed" | "ablation" | "tables"
    summary: str
    builder: Optional[Callable[[ReproductionScale], ExperimentSpec]] = None
    paper_claim: str = ""


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

#: What the paper reports for each of its figures (Section 5.5).
_PAPER_CLAIMS = {
    "figure-4": "Peak throughput with recoverability is ~67% above commutativity (at mpl=50); "
    "both curves rise then fall with mpl (thrashing); the relative gain grows with contention.",
    "figure-5": "Response time falls then rises with mpl; recoverability stays below commutativity "
    "once data contention matters.",
    "figure-6": "Blocking ratio is lower with recoverability at every mpl; restart ratios are "
    "similar until thrashing, then lower with recoverability; blocks outnumber restarts.",
    "figure-7": "Cycle-check ratio is ~22% higher with recoverability near the peak; abort length "
    "falls once the system thrashes.",
    "figure-8": "Without fair scheduling both peaks exceed their Figure 4 counterparts.",
    "figure-9": "Blocking and restart ratios are lower than under fair scheduling (Figure 6).",
    "figure-10": "With 5 resource units the peak drops versus infinite resources; recoverability "
    "is ~15% ahead at mpl=50 and commutativity thrashes earlier (mpl=25).",
    "figure-11": "With 1 resource unit throughput is very low and the two policies are nearly "
    "equal; recoverability pulls ahead only after thrashing sets in.",
    "figure-12": "Blocking ratio stays lower with recoverability; the gap grows with mpl.",
    "figure-13": "Same qualitative behaviour as Figure 7 under 5 resource units.",
    "figure-14": "Larger P_r raises throughput and delays thrashing (P_r=8 thrashes only beyond "
    "mpl=50); at mpl=50, P_r=8 is more than double P_r=0.",
    "figure-15": "With P_c=2 (stack-like objects) the P_r=8 peak is roughly double P_r=0.",
    "figure-16": "Blocking ratio grows with mpl but more slowly for larger P_r; restart ratios are "
    "similar except at mpl=200.",
    "figure-17": "With 5 resource units the P_r=8 peak improvement over P_r=0 is ~35% at mpl=50, "
    "and thrashing is delayed to mpl=50.",
    "figure-18": "With 1 resource unit throughput is low for every P_r; improvement appears only "
    "once the system thrashes heavily.",
}


def _figure_kind(experiment_id: str) -> str:
    if experiment_id in _DISTRIBUTED_IDS:
        return "distributed"
    if experiment_id == "figure-4-2pl":
        return "baseline"
    return "figure"


def _default_registry() -> ExperimentRegistry:
    registry = ExperimentRegistry()
    for experiment_id, builder in FIGURE_BUILDERS.items():
        registry.register(
            RegisteredExperiment(
                experiment_id=experiment_id,
                kind=_figure_kind(experiment_id),
                summary=builder(SMOKE_SCALE).title,
                builder=builder,
                paper_claim=_PAPER_CLAIMS.get(experiment_id, ""),
            )
        )
    for experiment_id, builder in ABLATION_BUILDERS.items():
        registry.register(
            RegisteredExperiment(
                experiment_id=experiment_id,
                kind="ablation",
                summary=builder(SMOKE_SCALE).title,
                builder=builder,
            )
        )
    registry.register(
        RegisteredExperiment(
            experiment_id="tables",
            kind="tables",
            summary="Tables I-X: declared vs derived compatibility + parameters",
            builder=None,
        )
    )
    return registry


#: The default registry: all 20 figure experiments (paper figures, the
#: strict-2PL baseline, the four distributed experiments), the two
#: simulation ablations, and the table regeneration.
EXPERIMENT_REGISTRY = _default_registry()
