"""A sweep point must not depend on the points run before it.

Every point is a :class:`Simulation` that is built, run once and dropped.
What survives a point in the process — the one-slot ADT table cache, shared
initial states drawn once per object batch, compiled policy tables — must
never leak into the next point: on the pinned CRC32-derived random streams a
point run after others is byte-identical to the same point built alone, for
every backend (commutativity, recoverability, two-phase locking),
centralized and multi-site alike.
"""

import pytest

from repro.analysis.experiments import _simulate_point
from repro.core.policy import ConflictPolicy
from repro.sim import workload as workload_module
from repro.sim.params import SimulationParameters
from repro.sim.simulator import run_simulation

POLICIES = {
    "commutativity": ConflictPolicy.COMMUTATIVITY,
    "recoverability": ConflictPolicy.RECOVERABILITY,
    "two-phase-locking": ConflictPolicy.TWO_PHASE_LOCKING,
}

CASES = [
    (policy_name, sites) for policy_name in sorted(POLICIES) for sites in (1, 3)
]


def point_params(policy: ConflictPolicy, sites: int) -> SimulationParameters:
    overrides = dict(
        mpl_level=12, total_completions=120, database_size=100, seed=9,
        policy=policy,
    )
    if sites > 1:
        overrides.update(site_count=sites, replication="copies")
    return SimulationParameters(**overrides)


def signature(metrics):
    """Every deterministic observable of a run, rounding only float noise."""
    return dict(
        metrics.counters(),
        simulated_time=round(metrics.simulated_time, 12),
        response_time_total=round(metrics.response_time_total, 12),
    )


class TestPointIndependence:
    @pytest.mark.parametrize("policy_name,sites", CASES)
    def test_a_point_matches_a_standalone_build(self, policy_name, sites):
        # Three points in a row, back to the first, each equal to a build
        # of its own.
        params = point_params(POLICIES[policy_name], sites)
        other = params.replace(mpl_level=8, total_completions=80)
        fresh_first = run_simulation(params, workload_kind="readwrite")
        fresh_other = run_simulation(other, workload_kind="readwrite")

        first, second, third = (
            _simulate_point((point, "readwrite")) for point in (params, other, params)
        )

        assert signature(first) == signature(fresh_first)
        assert signature(second) == signature(fresh_other)
        assert signature(third) == signature(fresh_first)

    def test_a_crashed_point_leaves_the_next_one_unchanged(self):
        # A site that failed and recovered carries on from the committed
        # states it held at the crash; those states belong to its copies
        # alone, so the next build starts again from the initial state.
        params = SimulationParameters(
            mpl_level=10, total_completions=80, database_size=80, seed=11,
            site_count=3, replication="copies",
            failure_schedule=((1.0, "fail", 1), (2.5, "recover", 1)),
        )
        fresh = run_simulation(params, workload_kind="readwrite")
        first = _simulate_point((params, "readwrite"))
        second = _simulate_point((params, "readwrite"))
        assert signature(first) == signature(fresh)
        assert signature(second) == signature(fresh)

    def test_quorum_and_two_phase_commit_points_repeat(self):
        # The protocol objects keep state across a run (awaiting commits,
        # version tables); none of it may reach the next build.
        params = SimulationParameters(
            mpl_level=10, total_completions=80, database_size=80, seed=3,
            site_count=3, replication="copies", replication_protocol="quorum",
            commit_protocol="two-phase",
        )
        fresh = run_simulation(params, workload_kind="adt")
        first = _simulate_point((params, "adt"))
        second = _simulate_point((params, "adt"))
        assert signature(first) == signature(fresh)
        assert signature(second) == signature(fresh)

    def test_a_redrawn_table_set_repeats_the_point(self):
        # The ADT table cache holds one set, keyed by seed: a point at
        # another seed evicts it, and the redraw must equal the first draw.
        params = point_params(ConflictPolicy.RECOVERABILITY, 1).replace(pc=4, pr=4)
        first = _simulate_point((params, "adt"))
        key = workload_module._TABLE_SET_SLOT[0]
        _simulate_point((params.replace(seed=10), "adt"))
        assert workload_module._TABLE_SET_SLOT[0] != key
        third = _simulate_point((params, "adt"))
        assert workload_module._TABLE_SET_SLOT[0] == key
        assert signature(third) == signature(first)
