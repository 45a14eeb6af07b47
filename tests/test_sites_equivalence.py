"""sites=1 must reproduce the pre-multi-site system bit for bit.

The constants below are the raw deterministic counters of the *pre-refactor*
single-scheduler simulator, captured on the pinned seeds before the
:class:`~repro.distributed.router.TransactionRouter` existed (the random
streams have been process-stable — CRC32-derived — since PR 1, so these
values are reproducible on any interpreter).  They hold for both
coordinators a one-site run can get: the direct one this file exercises (a
centralized simulation drives its scheduler through
:class:`~repro.sim.routing.CentralCoordinator`), and a one-site router,
which must be a pure pass-through — ``tests/test_central_coordinator.py``
runs the same pins with the router forced.  Any drift means the coordinator
changed the centralized system's decision stream.
"""

import pytest

from repro.core.policy import ConflictPolicy
from repro.sim.params import SimulationParameters
from repro.sim.simulator import Simulation, run_simulation

#: Raw counters of the pre-refactor simulator on pinned (params, seed) points.
PINNED = {
    "rw-recov-seed1": (
        dict(mpl_level=20, total_completions=200, database_size=200, seed=1,
             policy=ConflictPolicy.RECOVERABILITY),
        "readwrite",
        dict(completions=200, commits=148, pseudo_commits=52, blocks=122,
             restarts=22, cycle_checks=319, aborts=23, abort_length_total=136,
             commit_dependency_edges=188, events_processed=2168,
             simulated_time=6.2805056012, response_time_total=493.8753903924),
    ),
    "rw-recov-seed7": (
        dict(mpl_level=20, total_completions=200, database_size=200, seed=7,
             policy=ConflictPolicy.RECOVERABILITY),
        "readwrite",
        dict(completions=200, commits=135, pseudo_commits=65, blocks=148,
             restarts=25, cycle_checks=385, aborts=25, abort_length_total=177,
             commit_dependency_edges=235, events_processed=2257,
             simulated_time=7.199834262, response_time_total=572.7787869174),
    ),
    "rw-2pl-seed3": (
        dict(mpl_level=20, total_completions=200, database_size=200, seed=3,
             policy=ConflictPolicy.TWO_PHASE_LOCKING),
        "readwrite",
        dict(completions=200, commits=200, pseudo_commits=0, blocks=289,
             restarts=30, cycle_checks=319, aborts=30, abort_length_total=190,
             commit_dependency_edges=0, events_processed=2225,
             simulated_time=14.2961305294, response_time_total=1291.6200545279),
    ),
    "adt-recov-seed5": (
        dict(mpl_level=20, total_completions=150, database_size=150, seed=5,
             policy=ConflictPolicy.RECOVERABILITY),
        "adt",
        dict(completions=150, commits=117, pseudo_commits=33, blocks=321,
             restarts=80, cycle_checks=543, aborts=80, abort_length_total=472,
             commit_dependency_edges=136, events_processed=2071,
             simulated_time=12.1646762018, response_time_total=739.3247153197),
    ),
    "rw-comm-finite-seed2": (
        dict(mpl_level=20, total_completions=150, database_size=200, seed=2,
             policy=ConflictPolicy.COMMUTATIVITY, resource_units=2),
        "readwrite",
        dict(completions=150, commits=150, pseudo_commits=0, blocks=236,
             restarts=21, cycle_checks=257, aborts=21, abort_length_total=132,
             commit_dependency_edges=0, events_processed=3148,
             resource_cpu_served=1402, resource_cpu_waits=545,
             resource_disk_served=1396, resource_disk_waits=916,
             simulated_time=17.8856524443, response_time_total=1320.1088027193),
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_single_site_reproduces_pre_refactor_counters(case):
    overrides, workload, expected = PINNED[case]
    metrics = run_simulation(SimulationParameters(**overrides), workload_kind=workload)
    observed = dict(
        metrics.counters(),
        simulated_time=round(metrics.simulated_time, 10),
        response_time_total=round(metrics.response_time_total, 10),
    )
    assert observed == expected


def test_explicit_sites_one_matches_default():
    """site_count=1 + replication='single' is the default configuration."""
    base = dict(mpl_level=15, total_completions=100, database_size=100, seed=11)
    default = run_simulation(SimulationParameters(**base), "readwrite")
    explicit = run_simulation(
        SimulationParameters(site_count=1, replication="single", **base), "readwrite"
    )
    assert default.as_dict() == explicit.as_dict()
    assert default.events_processed == explicit.events_processed


def test_multi_site_runs_are_deterministic():
    """Same (params, seed) twice -> identical multi-site metrics."""
    params = SimulationParameters(
        mpl_level=15, total_completions=100, database_size=100, seed=11,
        site_count=2, replication="copies",
        failure_schedule=((1.0, "fail", 1), (2.5, "recover", 1)),
    )
    first = run_simulation(params, "readwrite")
    second = run_simulation(params, "readwrite")
    assert first.as_dict() == second.as_dict()
    assert first.events_processed == second.events_processed


def test_failure_schedule_fires_and_system_completes():
    params = SimulationParameters(
        mpl_level=15, total_completions=100, database_size=100, seed=11,
        site_count=2, replication="copies",
        failure_schedule=((1.0, "fail", 1), (2.5, "recover", 1)),
    )
    simulation = Simulation(params, "readwrite")
    metrics = simulation.run()
    stats = simulation.router.router_stats
    assert metrics.completions >= params.total_completions
    assert stats.site_failures == 1
    assert stats.site_recoveries == 1
