"""The direct coordinator must be indistinguishable from a one-site router.

A centralized simulation (one site, no failure schedule) drives its
:class:`~repro.core.scheduler.Scheduler` through a
:class:`~repro.sim.routing.CentralCoordinator`; everything else gets a
:class:`~repro.distributed.router.TransactionRouter`.  The router still
supports ``site_count=1``, so the same parameters can be run on both: these
tests force the router by monkeypatching the seam's selection (there is no
production switch) and require every deterministic observable to agree.
"""

import io
import itertools
import json
import pathlib

import pytest
from test_sites_equivalence import PINNED

from repro.cli import main
from repro.core.backends import SemanticBackend
from repro.core.errors import SimulationError
from repro.core.policy import ConflictPolicy
from repro.core.scheduler import SchedulerListener
from repro.distributed.router import TransactionRouter
from repro.sim import routing
from repro.sim.params import SimulationParameters
from repro.sim.routing import CentralCoordinator
from repro.sim.simulator import Simulation

POLICIES = {
    "recoverability": ConflictPolicy.RECOVERABILITY,
    "commutativity": ConflictPolicy.COMMUTATIVITY,
    "2pl": ConflictPolicy.TWO_PHASE_LOCKING,
}
RESOURCES = {
    "infinite": dict(),
    "units2": dict(resource_units=2),
    "per-site": dict(resource_units=1, resource_placement="per_site"),
}
COMMITS = {
    "one-phase": dict(),
    "two-phase": dict(commit_protocol="two-phase"),
    "two-phase-timeout": dict(commit_protocol="two-phase", prepare_timeout=0.5),
}
REPLICATIONS = {
    "available-copies": dict(),
    "quorum-r1w1": dict(replication="copies", replication_protocol="quorum",
                        quorum_read=1, quorum_write=1),
    "primary-copy": dict(replication="copies", replication_protocol="primary-copy"),
}
SEEDS = (1, 7, 13)
DATA = pathlib.Path(__file__).resolve().parent / "data"


def digest(metrics):
    """Every deterministic observable of a run."""
    return dict(
        metrics.counters(),
        simulated_time=metrics.simulated_time,
        response_time_total=metrics.response_time_total,
        events_processed=metrics.events_processed,
    )


def routed_simulation(params, workload):
    """A simulation whose seam built a TransactionRouter for centralized params."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routing, "is_centralized", lambda params: False)
        simulation = Simulation(params, workload)
    assert type(simulation.router) is TransactionRouter
    return simulation


def both_coordinators(params, workload, drive):
    """``drive(simulation)`` on the direct coordinator and on a forced router."""
    direct = Simulation(params, workload)
    assert type(direct.router) is CentralCoordinator
    return drive(direct), drive(routed_simulation(params, workload))


@pytest.mark.parametrize("resources", sorted(RESOURCES))
@pytest.mark.parametrize("workload", ["readwrite", "adt"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_direct_coordinator_matches_a_forced_router(policy, workload, resources):
    for commit, replication, seed in itertools.product(
        sorted(COMMITS), sorted(REPLICATIONS), SEEDS
    ):
        params = SimulationParameters(
            mpl_level=6, total_completions=20, database_size=30, seed=seed,
            num_terminals=24,
            policy=POLICIES[policy], msg_time=0.001,
            **RESOURCES[resources], **COMMITS[commit], **REPLICATIONS[replication],
        )
        direct, routed = both_coordinators(
            params, workload, lambda simulation: digest(simulation.run())
        )
        assert direct == routed, (commit, replication, seed)


@pytest.mark.parametrize("workload", ["readwrite", "adt"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_successive_builds_agree_across_two_mpl_points(policy, workload):
    params = SimulationParameters(
        mpl_level=12, total_completions=80, database_size=60, seed=7,
        policy=POLICIES[policy], resource_units=2,
    )
    other = params.replace(mpl_level=5, total_completions=50)

    def sweep(build):
        return tuple(digest(build(point).run()) for point in (params, other, params))

    direct = sweep(lambda point: Simulation(point, workload))
    routed = sweep(lambda point: routed_simulation(point, workload))
    assert direct == routed
    assert direct[0] == direct[2] != direct[1]


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pre_refactor_pins_hold_on_a_forced_router(case):
    # test_sites_equivalence runs the same pins on the direct coordinator.
    overrides, workload, expected = PINNED[case]
    metrics = routed_simulation(SimulationParameters(**overrides), workload).run()
    observed = dict(
        metrics.counters(),
        simulated_time=round(metrics.simulated_time, 10),
        response_time_total=round(metrics.response_time_total, 10),
    )
    assert observed == expected


def test_one_site_with_a_failure_schedule_still_gets_a_router():
    params = SimulationParameters(
        mpl_level=10, total_completions=80, database_size=60, seed=3,
        failure_schedule=((0.5, "fail", 0), (0.9, "recover", 0)),
    )
    simulation = Simulation(params, "readwrite")
    assert type(simulation.router) is TransactionRouter
    metrics = simulation.run()
    assert metrics.completions >= params.total_completions
    assert simulation.router.router_stats.site_failures == 1
    assert simulation.router.router_stats.site_recoveries == 1


def test_the_simulation_subscribes_to_the_scheduler_itself():
    params = SimulationParameters(
        mpl_level=10, total_completions=40, database_size=20, seed=1
    )
    simulation = Simulation(params, "readwrite")
    scheduler = simulation.router.scheduler
    assert scheduler._listeners == [simulation]
    assert simulation.router.submit == scheduler.submit
    assert simulation.router.stats is scheduler.stats
    metrics = simulation.run()
    assert metrics.counters()["blocks"] > 0  # grants arrived as callbacks


def test_the_commit_fan_out_delay_is_the_chargers_call():
    # No stock charger delays a home-local commit; one that does must be
    # heard by both coordinators alike.
    params = SimulationParameters(
        mpl_level=10, total_completions=40, database_size=40, seed=1
    )

    def delayed(simulation):
        simulation.resources.commit_network_delay = lambda sites, home: 0.25
        return digest(simulation.run())

    direct, routed = both_coordinators(params, "readwrite", delayed)
    assert direct == routed
    undelayed = digest(Simulation(params, "readwrite").run())
    assert direct["events_processed"] > undelayed["events_processed"]


# ----------------------------------------------------------------------
# A handle outlives its transaction with its final status
# ----------------------------------------------------------------------
class _HandleStasher(SchedulerListener):
    """Keeps every granted handle past its owner's termination."""

    def __init__(self):
        self.granted = []
        self.terminated = set()

    def on_granted(self, transaction_id, handle, event):
        assert handle.executed
        self.granted.append((transaction_id, handle))

    def on_committed(self, transaction_id):
        self.terminated.add(transaction_id)

    def on_aborted(self, transaction_id, reason):
        self.terminated.add(transaction_id)


def test_a_stashed_granted_handle_keeps_its_final_status():
    params = SimulationParameters(
        mpl_level=12, total_completions=120, database_size=40, seed=9
    )
    simulation = Simulation(params, "readwrite")
    assert type(simulation.router) is CentralCoordinator
    stasher = _HandleStasher()
    simulation.router.add_listener(stasher)
    simulation.run()
    kept = [
        (transaction_id, handle)
        for transaction_id, handle in stasher.granted
        if transaction_id in stasher.terminated
    ]
    assert kept
    for transaction_id, handle in kept:
        assert handle.executed
        assert handle.transaction_id == transaction_id


def test_a_backend_instance_reaches_the_scheduler_unwrapped():
    params = SimulationParameters(mpl_level=5, total_completions=20, database_size=20)
    backend = SemanticBackend()
    simulation = Simulation(params, "readwrite", backend=backend)
    assert simulation.router.scheduler.backend is backend
    assert digest(simulation.run()) == digest(Simulation(params, "readwrite").run())
    for overrides in (
        dict(site_count=2, replication="copies"),
        dict(failure_schedule=((0.5, "fail", 0),)),
    ):
        with pytest.raises(SimulationError, match="explicit backend instance requires"):
            Simulation(
                params.replace(**overrides), "readwrite",
                backend=SemanticBackend(),
            )


# ----------------------------------------------------------------------
# `repro simulate --json` at --sites 1: the payload a router used to print
# ----------------------------------------------------------------------
def _rounded(value):
    """Floats to 10 digits (libm differs in the last ulp across platforms)."""
    if isinstance(value, float):
        return round(value, 10)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


@pytest.mark.parametrize("policy,workload", [
    ("recoverability", "readwrite"), ("2pl", "readwrite"), ("recoverability", "adt"),
])
def test_simulate_json_matches_the_recorded_router_payload(policy, workload):
    # tests/data/simulate_sites1_*.json are the outputs of this command at
    # the parent commit, where a one-site run still built a TransactionRouter
    # and the ``sites`` block came from its RouterStatistics.
    out = io.StringIO()
    assert main([
        "simulate", "--policy", policy, "--workload", workload, "--mpl", "20",
        "--completions", "150", "--database-size", "80", "--seed", "5", "--json",
    ], out=out) == 0
    recorded = (DATA / f"simulate_sites1_{policy}_{workload}.json").read_text()
    assert list(json.loads(out.getvalue())) == list(json.loads(recorded))
    assert _rounded(json.loads(out.getvalue())) == _rounded(json.loads(recorded))
