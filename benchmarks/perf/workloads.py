"""The seven benchmark workloads and the checks that make a run count.

A workload is ``setup(seed)`` (the timed construction: ``setup_s``) and
``run(built)`` (the timed call: ``txn_per_s``), plus ``outcome(result)``,
which folds whatever ``run`` returned into the counters the correctness
checks and the per-layer metrics read.  Only public ``repro`` API that
ROADMAP item 2 keeps is used, and ``repro`` is imported inside the
functions so ``run.py --src`` decides which checkout is measured.

Sizes are the issue's seed-1 sizes scaled by one common factor (0.6, about
1.3-2.3 s per repeat on the 2-core reference host) so that several repeats
fit the ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

WARMUP_COMPLETIONS = 500
#: ``--quick`` sizes: enough simulated time for the scripted crashes to fire.
QUICK_COMPLETIONS = 400
QUICK_WARMUP = 100


@dataclass
class Outcome:
    """What one repeat produced, reduced to deterministic numbers."""

    #: Numerator of ``txn_per_s``: every completed transaction, warm-up included.
    transactions: int
    #: ``RunMetrics.counters()`` (summed over the points of a sweep).
    counters: Dict[str, int]
    simulated_time: float
    response_time_total: float
    failures: List[str] = field(default_factory=list)
    #: Extra deterministic text folded into the digest (the rendered reports).
    text: str = ""

    @property
    def digest(self) -> int:
        """crc32 over every simulated statistic; equal across repeats or the
        run is non-deterministic."""
        payload = repr(
            (
                sorted(self.counters.items()),
                self.simulated_time,
                self.response_time_total,
                self.text,
            )
        )
        return zlib.crc32(payload.encode("utf-8"))


Invariant = Tuple[str, Callable[[Mapping[str, int]], bool]]


def _check_counters(
    counters: Mapping[str, int], expected_completions: int, invariants: Sequence[Invariant]
) -> List[str]:
    failures = []
    if counters["completions"] != expected_completions:
        failures.append(
            f"completions {counters['completions']} != expected {expected_completions}"
        )
    if counters["commits"] + counters["pseudo_commits"] != counters["completions"]:
        failures.append("commits + pseudo_commits != completions")
    failures += [label for label, holds in invariants if not holds(counters)]
    return failures


class SimulationWorkload:
    """One ``Simulation(params, workload_kind).run()`` point."""

    #: Repeats share the process: a fresh ``Simulation`` per repeat is what a
    #: caller of the library pays, and nothing is cached between them.
    isolated = False
    constructions = 25

    def __init__(
        self,
        name: str,
        kind: str,
        completions: int,
        invariants: Sequence[Invariant] = (),
        **overrides: Any,
    ):
        self.name = name
        self.kind = kind
        self.completions = completions
        self.warmup = WARMUP_COMPLETIONS
        self.invariants = tuple(invariants)
        self.overrides = overrides

    def shrink(self) -> None:
        """``--quick``: a smoke-test size, not a measurement."""
        self.completions = QUICK_COMPLETIONS
        self.warmup = QUICK_WARMUP
        self.constructions = 3

    def setup(self, seed: int) -> Any:
        from repro import ConflictPolicy
        from repro.sim import Simulation, SimulationParameters

        overrides = dict(self.overrides)
        if "policy" in overrides:
            overrides["policy"] = ConflictPolicy(overrides["policy"])
        params = SimulationParameters(
            seed=seed,
            total_completions=self.completions,
            warmup_completions=self.warmup,
            **overrides,
        )
        return Simulation(params, workload_kind=self.kind)

    def run(self, simulation: Any) -> Any:
        return simulation.run()

    def outcome(self, metrics: Any) -> Outcome:
        counters = metrics.counters()
        # The completion that closes the warm-up window is itself measured.
        expected = self.completions - self.warmup + 1
        return Outcome(
            transactions=self.completions,
            counters=counters,
            simulated_time=metrics.simulated_time,
            response_time_total=metrics.response_time_total,
            failures=_check_counters(counters, expected, self.invariants),
        )


class FiguresSweep:
    """What ``repro figures`` pays: three registry experiments at bench scale.

    Every repeat is its own interpreter (``isolated``): users pay import,
    registry build and construction on every invocation, and a second sweep
    in one process would be served from the experiment runner's
    per-process simulation cache.
    """

    name = "figures-sweep"
    isolated = True
    constructions = 8
    experiment_ids = ("figure-4", "figure-14", "figure-4-commit")
    scale_name = "BENCH_SCALE"

    def shrink(self) -> None:
        self.experiment_ids = ("figure-4",)
        self.scale_name = "SMOKE_SCALE"
        self.constructions = 2

    def setup(self, seed: int) -> Any:
        import repro.analysis as analysis

        scale = getattr(analysis, self.scale_name)
        specs = [analysis.EXPERIMENT_REGISTRY.spec(eid, scale) for eid in self.experiment_ids]
        for spec in specs:
            spec.base_params = spec.base_params.replace(seed=seed)
        return specs

    def run(self, specs: Any) -> Any:
        from repro.analysis import render_result, run_experiment

        results = [run_experiment(spec, workers=1) for spec in specs]
        return results, [render_result(result) for result in results]

    def outcome(self, ran: Any) -> Outcome:
        results, reports = ran
        counters: Dict[str, int] = {}
        simulated_time = 0.0
        response_time_total = 0.0
        failures: List[str] = []
        for result in results:
            expected = result.spec.base_params.total_completions * result.spec.runs
            for label, per_level in result.points.items():
                for level, point in per_level.items():
                    point_counters = {name: int(value) for name, value in point.counters}
                    where = f"{result.spec.experiment_id} {label} mpl={level}: "
                    failures += [
                        where + failure
                        for failure in _check_counters(point_counters, expected, ())
                    ]
                    for name, value in point_counters.items():
                        counters[name] = counters.get(name, 0) + value
                    simulated_time += point.simulated_time
                    response_time_total += point.response_time * point.completions * point.runs
        if not all(reports):
            failures.append("render_result returned an empty report")
        return Outcome(
            transactions=counters.get("completions", 0),
            counters=counters,
            simulated_time=simulated_time,
            response_time_total=response_time_total,
            failures=failures,
            text="\n".join(reports),
        )


def _crash_schedule() -> Tuple[Tuple[float, str, int], ...]:
    """Two staggered single-site outages every 10 simulated seconds."""
    return tuple(
        entry
        for start in range(0, 400, 10)
        for entry in (
            (start + 2.0, "fail", 1),
            (start + 4.0, "recover", 1),
            (start + 5.0, "fail", 0),
            (start + 7.0, "recover", 0),
        )
    )


def make_workloads() -> Dict[str, Any]:
    """Fresh workload objects in ``BENCHMARK.json`` order."""
    workloads = [
        SimulationWorkload(
            "rw-lowconf", "readwrite", 12_000, database_size=1000, mpl_level=25
        ),
        SimulationWorkload("rw-hot", "readwrite", 4_800, database_size=200, mpl_level=50),
        SimulationWorkload(
            "rw-2pl",
            "readwrite",
            3_600,
            invariants=[("2PL never pseudo-commits", lambda c: c["pseudo_commits"] == 0)],
            database_size=200,
            mpl_level=50,
            policy="2pl",
        ),
        SimulationWorkload("adt-central", "adt", 8_400, mpl_level=50),
        SimulationWorkload(
            "ac4-persite",
            "readwrite",
            3_000,
            write_probability=0.1,
            site_count=4,
            replication="copies",
            resource_units=1,
            resource_placement="per_site",
            msg_time=0.001,
            mpl_level=50,
        ),
        SimulationWorkload(
            "q3-2pc-crash",
            "readwrite",
            3_600,
            invariants=[
                (
                    "2PC left an under-replicated window",
                    lambda c: c["replication_under_replicated_window"] == 0,
                ),
                ("2PC force-reported a commit", lambda c: c["commit_forced_reports"] == 0),
                ("no prepare round ran", lambda c: c["commit_prepare_rounds"] > 0),
                ("no recovering site caught up", lambda c: c["replication_catchups"] > 0),
            ],
            site_count=3,
            replication="copies",
            replication_protocol="quorum",
            quorum_read=2,
            quorum_write=2,
            commit_protocol="two-phase",
            msg_time=0.002,
            mpl_level=25,
            failure_schedule=_crash_schedule(),
        ),
        FiguresSweep(),
    ]
    return {workload.name: workload for workload in workloads}


#: The two cheapest workloads that between them touch every layer but
#: ``resources`` and ``analysis``; what ``--quick`` runs.
QUICK_WORKLOADS = ("rw-hot", "q3-2pc-crash")
