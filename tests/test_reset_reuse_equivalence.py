"""``Simulation.reset()`` reuse must be invisible.

The experiment harness *reuses* a constructed :class:`Simulation` across
sweep points through :meth:`Simulation.reset` instead of rebuilding it.  That
is a pure optimization, so it must be byte-identical to a rebuild on the
pinned CRC32-derived random streams — for every backend (commutativity,
recoverability, two-phase locking), centralized and multi-site alike.
"""

import pytest

from repro.core.errors import SimulationError
from repro.core.policy import ConflictPolicy
from repro.sim.params import SimulationParameters
from repro.sim.simulator import Simulation, run_simulation

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


class TestResetReuseEquivalence:
    @pytest.mark.parametrize("policy_name,sites", CASES)
    def test_reset_reuse_matches_rebuild(self, policy_name, sites):
        # One constructed simulation swept across two parameter points and
        # back must reproduce three freshly built runs bit for bit.
        params = point_params(POLICIES[policy_name], sites)
        other = params.replace(mpl_level=8, total_completions=80)
        fresh_first = run_simulation(params, workload_kind="readwrite")
        fresh_other = run_simulation(other, workload_kind="readwrite")

        simulation = Simulation(params, workload_kind="readwrite")
        first = simulation.run()
        simulation.reset(other)
        second = simulation.run()
        simulation.reset(params)
        third = simulation.run()

        assert signature(first) == signature(fresh_first)
        assert signature(second) == signature(fresh_other)
        assert signature(third) == signature(fresh_first)

    def test_reset_after_crash_and_recovery_rebuilds_sites(self):
        # A site that failed and recovered carries on from the committed
        # states it held at the crash; reset() must rewind every copy to its
        # registered initial state, not to that durable state.
        params = SimulationParameters(
            mpl_level=10, total_completions=80, database_size=80, seed=11,
            site_count=3, replication="copies",
            failure_schedule=((1.0, "fail", 1), (2.5, "recover", 1)),
        )
        fresh = run_simulation(params, workload_kind="readwrite")
        simulation = Simulation(params, workload_kind="readwrite")
        first = simulation.run()
        simulation.reset(params)
        second = simulation.run()
        assert signature(first) == signature(fresh)
        assert signature(second) == signature(fresh)

    def test_reset_reuse_under_quorum_and_two_phase_commit(self):
        # The protocol objects keep state across a run (awaiting commits,
        # version tables); their reset() hooks must clear all of it.
        params = SimulationParameters(
            mpl_level=10, total_completions=80, database_size=80, seed=3,
            site_count=3, replication="copies", replication_protocol="quorum",
            commit_protocol="two-phase",
        )
        fresh = run_simulation(params, workload_kind="adt")
        simulation = Simulation(params, workload_kind="adt")
        first = simulation.run()
        simulation.reset(params)
        second = simulation.run()
        assert signature(first) == signature(fresh)
        assert signature(second) == signature(fresh)

    def test_reset_rejects_structural_parameter_changes(self):
        params = point_params(ConflictPolicy.RECOVERABILITY, 1)
        simulation = Simulation(params, workload_kind="readwrite")
        simulation.run()
        with pytest.raises(SimulationError):
            simulation.reset(params.replace(seed=10))
        with pytest.raises(SimulationError):
            simulation.reset(params.replace(database_size=50))
