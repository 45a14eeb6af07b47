"""Finite-resource runs must survive the resource-domain refactor bit for bit.

The per-site resource refactor carved :class:`ResourceDomain` out of the old
global resource model and routed the charging through the
:class:`~repro.distributed.router.TransactionRouter`.  With
``resource_placement="global"`` (the default) and ``sites=1`` nothing about
the simulation may change: the constants below are the raw deterministic
counters — including the resource utilisation counters — of the
*pre-refactor* simulator on pinned ``(params, seed)`` points, captured before
the refactor landed.  The random streams have been process-stable
(CRC32-derived) since PR 1, so these values are reproducible on any
interpreter (verified on 3.11-3.13 in CI).  Any drift here means the
refactor changed the centralized system's decision or event stream.
"""

import pytest

from repro.core.policy import ConflictPolicy
from repro.sim.params import SimulationParameters
from repro.sim.simulator import run_simulation

#: Raw counters of the pre-refactor simulator on pinned finite-resource
#: points (``resource_placement`` defaults to ``"global"`` throughout).
PINNED_FINITE = {
    "rw-recov-units5-seed1": (
        dict(mpl_level=20, total_completions=200, database_size=200, seed=1,
             policy=ConflictPolicy.RECOVERABILITY, resource_units=5),
        "readwrite",
        dict(completions=200, commits=152, pseudo_commits=48, blocks=112,
             restarts=22, cycle_checks=312, aborts=22, abort_length_total=138,
             commit_dependency_edges=190, events_processed=3941,
             resource_cpu_served=1761, resource_cpu_waits=231,
             resource_disk_served=1748, resource_disk_waits=1088,
             simulated_time=9.8294201711, response_time_total=844.7308644094),
    ),
    "rw-2pl-units1-seed3": (
        dict(mpl_level=20, total_completions=200, database_size=200, seed=3,
             policy=ConflictPolicy.TWO_PHASE_LOCKING, resource_units=1),
        "readwrite",
        dict(completions=200, commits=200, pseudo_commits=0, blocks=300,
             restarts=27, cycle_checks=328, aborts=27, abort_length_total=198,
             commit_dependency_edges=0, events_processed=4073,
             resource_cpu_served=1830, resource_cpu_waits=1219,
             resource_disk_served=1824, resource_disk_waits=1621,
             simulated_time=35.5647265623, response_time_total=3376.7173101699),
    ),
    "adt-recov-units2-seed5": (
        dict(mpl_level=20, total_completions=150, database_size=150, seed=5,
             policy=ConflictPolicy.RECOVERABILITY, resource_units=2),
        "adt",
        dict(completions=150, commits=117, pseudo_commits=33, blocks=330,
             restarts=84, cycle_checks=562, aborts=84, abort_length_total=516,
             commit_dependency_edges=148, events_processed=3764,
             resource_cpu_served=1657, resource_cpu_waits=674,
             resource_disk_served=1654, resource_disk_waits=1096,
             simulated_time=21.3600989844, response_time_total=1467.5819517691),
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_FINITE))
def test_global_placement_reproduces_pre_refactor_finite_counters(case):
    overrides, workload, expected = PINNED_FINITE[case]
    metrics = run_simulation(SimulationParameters(**overrides), workload_kind=workload)
    observed = dict(
        metrics.counters(),
        simulated_time=round(metrics.simulated_time, 10),
        response_time_total=round(metrics.response_time_total, 10),
    )
    assert observed == expected


def test_explicit_global_placement_matches_default():
    """resource_placement='global' is the default configuration."""
    base = dict(mpl_level=15, total_completions=100, database_size=100,
                seed=11, resource_units=2)
    default = run_simulation(SimulationParameters(**base), "readwrite")
    explicit = run_simulation(
        SimulationParameters(resource_placement="global", **base), "readwrite"
    )
    assert default.counters() == explicit.counters()
    assert default.as_dict() == explicit.as_dict()


def test_per_site_runs_are_deterministic():
    """Same (params, seed) twice -> identical per-site-resource metrics."""
    params = SimulationParameters(
        mpl_level=15, total_completions=100, database_size=100, seed=11,
        site_count=2, replication="copies",
        resource_units=1, resource_placement="per_site", msg_time=0.001,
    )
    first = run_simulation(params, "readwrite")
    second = run_simulation(params, "readwrite")
    assert first.counters() == second.counters()
    assert first.as_dict() == second.as_dict()


def test_per_site_counters_expose_each_site():
    params = SimulationParameters(
        mpl_level=10, total_completions=60, database_size=100, seed=3,
        site_count=2, replication="copies",
        resource_units=1, resource_placement="per_site", msg_time=0.001,
    )
    counters = run_simulation(params, "readwrite").counters()
    for site in (0, 1):
        assert counters[f"resource_site{site}_cpu_served"] > 0
        assert counters[f"resource_site{site}_disk_served"] > 0
    # Writes fan out and transactions are homed round-robin, so with two
    # sites some work is necessarily remote and pays the network cost.
    assert counters["resource_messages_sent"] > 0
    assert counters["resource_remote_operations"] > 0
    # The aggregate is the sum of the per-site counters.
    assert counters["resource_cpu_served"] == (
        counters["resource_site0_cpu_served"] + counters["resource_site1_cpu_served"]
    )


def test_resource_counters_are_windowed_under_warmup():
    """Like every other counter, utilisation covers the measurement window."""
    base = dict(mpl_level=10, total_completions=120, database_size=100,
                seed=2, resource_units=1)
    full = run_simulation(
        SimulationParameters(warmup_completions=0, **base), "readwrite"
    )
    windowed = run_simulation(
        SimulationParameters(warmup_completions=60, **base), "readwrite"
    )
    # Identical streams; the warm-up run only starts counting later, so its
    # resource counters must be strictly smaller but still positive.
    for key in ("resource_cpu_served", "resource_disk_served"):
        assert 0 < windowed.counters()[key] < full.counters()[key]


def test_msg_time_slows_the_closed_system_down():
    """Network cost is real time: throughput drops when msg_time rises."""
    base = dict(
        mpl_level=15, total_completions=100, database_size=100, seed=11,
        site_count=2, replication="copies",
        resource_units=1, resource_placement="per_site",
    )
    free = run_simulation(SimulationParameters(msg_time=0.0, **base), "readwrite")
    costly = run_simulation(SimulationParameters(msg_time=0.02, **base), "readwrite")
    assert costly.throughput < free.throughput
    assert costly.counters()["resource_messages_sent"] > 0
    assert free.counters()["resource_messages_sent"] == 0


def test_read_scaling_with_replicated_sites():
    """The headline: read-heavy throughput grows with replicated sites."""
    results = {}
    for sites in (1, 4):
        params = SimulationParameters(
            mpl_level=40, total_completions=200, database_size=1000, seed=1,
            write_probability=0.1,
            site_count=sites, replication="copies" if sites > 1 else "single",
            resource_units=1, resource_placement="per_site",
        )
        results[sites] = run_simulation(params, "readwrite").throughput
    assert results[4] >= 1.5 * results[1]
