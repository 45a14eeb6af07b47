"""Strict two-phase locking, checked against its definition after every event.

The stream pins elsewhere prove the lock table *stable*; these tests prove it
*right*.  Seeded read/write runs under ``ConflictPolicy.TWO_PHASE_LOCKING`` —
fair and unfair, centralized and three sites with quorum R2/W2, two-phase
commit and scripted double crashes — are driven one engine event at a time,
and between every two events each live scheduler must satisfy, through public
API only:

* **lock compatibility** — an object has one exclusive holder alone, or only
  shared holders;
* **strictness** — the holders of an object are exactly the live transactions
  with uncommitted operations on it: nothing is released before termination,
  nothing is held after it;
* **complete wait-for sets** — a blocked transaction's wait-for successors
  equal the conflict set computed from first principles: the other holders of
  a conflicting lock, plus — for a fair request whose owner holds nothing on
  the object — the owners of conflicting requests queued ahead of it;
* **no deadlock survives** — the dependency graph is acyclic.

Next to them: crc32 pins of small ``rw-2pl``- and ``rw-hot``-shaped runs
recorded on the commit before the lock table changed representation, and
the listener contract of a queue grant.
"""

import zlib

import pytest
from stepping import CheckedSimulation, double_crashes, find_cycle

from repro.adts import PageType
from repro.core.backends import LockMode
from repro.core.dependency_graph import EdgeKind
from repro.core.policy import ConflictPolicy
from repro.core.scheduler import Scheduler, SchedulerListener
from repro.core.transaction import TransactionStatus
from repro.sim.params import SimulationParameters
from repro.sim.simulator import run_simulation

SEEDS = (1, 7, 13)


# ----------------------------------------------------------------------
# The definition
# ----------------------------------------------------------------------
def mode_of(manager, invocation):
    """Page-level locking: read-only operations share, everything else excludes."""
    read_only = manager.spec.operation(invocation.op).is_read_only
    return LockMode.SHARED if read_only else LockMode.EXCLUSIVE


def conflict(left, right):
    return left is LockMode.EXCLUSIVE or right is LockMode.EXCLUSIVE


def check_scheduler(scheduler):
    backend = scheduler.backend
    for name, manager in scheduler.objects.items():
        holders = backend.holders(name)
        modes = list(holders.values())
        assert LockMode.EXCLUSIVE not in modes or len(modes) == 1, (name, holders)
        assert set(holders) == manager.live_transactions(), (name, holders)
        for tid in holders:
            assert scheduler.transactions[tid].status.is_live, (name, tid)
        assert all(
            mode is LockMode.EXCLUSIVE or mode_of(manager, event.invocation) is LockMode.SHARED
            for tid, mode in holders.items() for event in manager.events_of(tid)
        ), (name, holders)

    for transaction in scheduler.transactions.values():
        waiting_for = scheduler.waiting_for(transaction.tid)
        if transaction.status is not TransactionStatus.BLOCKED:
            assert waiting_for == set(), transaction
            continue
        (name,) = transaction.blocked_at
        manager = scheduler.objects[name]
        ((position, request),) = [
            (index, pending) for index, pending in enumerate(manager.blocked)
            if pending.transaction_id == transaction.tid
        ]
        mode = mode_of(manager, request.invocation)
        holders = backend.holders(name)
        expected = {
            tid for tid, granted in holders.items()
            if tid != transaction.tid and conflict(mode, granted)
        }
        if scheduler.fair and transaction.tid not in holders:
            expected |= {
                ahead.transaction_id for ahead in manager.blocked[:position]
                if conflict(mode, mode_of(manager, ahead.invocation))
            }
        assert expected, ("blocked behind nobody", transaction, name)
        assert waiting_for == expected, (transaction, name, holders)

    edges = scheduler.graph.edges()
    assert all(edge.kind is EdgeKind.WAIT_FOR for edge in edges)
    assert find_cycle([(edge.source, edge.target) for edge in edges]) is None


class LockTableSimulation(CheckedSimulation):
    check = staticmethod(check_scheduler)


def locking_params(seed, fair, sites):
    overrides = dict(
        policy=ConflictPolicy.TWO_PHASE_LOCKING, seed=seed, fair_scheduling=fair,
        database_size=30, mpl_level=12, total_completions=120,
    )
    if sites > 1:
        overrides.update(
            total_completions=70,
            site_count=sites, replication="copies", replication_protocol="quorum",
            quorum_read=2, quorum_write=2, commit_protocol="two-phase", msg_time=0.002,
            failure_schedule=double_crashes(period=4, until=400),
        )
    return SimulationParameters(**overrides)


class TestInvariantsBetweenEveryTwoEvents:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fair", [True, False], ids=["fair", "unfair"])
    @pytest.mark.parametrize("sites", [1, 3], ids=["central", "q3-2pc-crash"])
    def test_stepped_run_never_leaves_the_definition(self, seed, fair, sites):
        params = locking_params(seed, fair, sites)
        simulation = LockTableSimulation(params, workload_kind="readwrite")
        metrics = simulation.run()
        counters = metrics.counters()
        assert simulation.checks >= counters["events_processed"]
        # The run was contended enough for every invariant to have had teeth.
        assert counters["blocks"] > 50 and counters["aborts"] > 0
        assert counters["pseudo_commits"] == 0
        if sites > 1:
            assert counters["replication_catchups"] > 0
        # Stepping changes nothing: the unstepped run is the same run.
        assert counters == run_simulation(params, workload_kind="readwrite").counters()

    def test_the_checker_has_teeth(self):
        """A lock released early, or a wait-for edge dropped, is caught."""
        scheduler = Scheduler(policy=ConflictPolicy.TWO_PHASE_LOCKING)
        scheduler.register_object("P", PageType())
        writer, reader = scheduler.begin(), scheduler.begin()
        scheduler.perform(writer.tid, "P", "write", 1)
        assert scheduler.perform(reader.tid, "P", "read").blocked
        check_scheduler(scheduler)
        scheduler.graph.remove_edges_from(reader.tid, EdgeKind.WAIT_FOR)
        with pytest.raises(AssertionError):
            check_scheduler(scheduler)
        scheduler.graph.add_edge(reader.tid, writer.tid, EdgeKind.WAIT_FOR)
        check_scheduler(scheduler)
        scheduler.object("P").remove_transaction(writer.tid, commit=False)
        with pytest.raises(AssertionError):
            check_scheduler(scheduler)
        assert find_cycle([(1, 2), (2, 3), (3, 1)]) is not None
        assert find_cycle([(1, 2), (2, 3), (1, 3)]) is None


# ----------------------------------------------------------------------
# Stream pins
# ----------------------------------------------------------------------
def digest(metrics):
    """The perf harness's output digest: crc32 over every simulated statistic."""
    payload = repr(
        (sorted(metrics.counters().items()), metrics.simulated_time, metrics.response_time_total)
    )
    return zlib.crc32(payload.encode("utf-8"))


#: Recorded on the parent of the lock-record change (commit 0d23d81).
PINS = {
    (ConflictPolicy.TWO_PHASE_LOCKING, 1): 86314438,
    (ConflictPolicy.TWO_PHASE_LOCKING, 7): 784962596,
    (ConflictPolicy.TWO_PHASE_LOCKING, 13): 877956227,
    (ConflictPolicy.RECOVERABILITY, 1): 2741825693,
    (ConflictPolicy.RECOVERABILITY, 7): 1073300362,
    (ConflictPolicy.RECOVERABILITY, 13): 3201849701,
}


class TestPinnedStreams:
    @pytest.mark.parametrize("policy,seed", sorted(PINS, key=lambda case: (case[0].value, case[1])))
    def test_small_contended_runs_are_pinned(self, policy, seed):
        params = SimulationParameters(
            policy=policy, seed=seed, database_size=40, mpl_level=16,
            total_completions=250, warmup_completions=50,
        )
        metrics = run_simulation(params, workload_kind="readwrite")
        assert digest(metrics) == PINS[policy, seed]


# ----------------------------------------------------------------------
# The listener contract of a queue grant
# ----------------------------------------------------------------------
class Recorder(SchedulerListener):
    def __init__(self):
        self.heard = []

    def on_executed(self, transaction_id, handle, event):
        self.heard.append(("executed", transaction_id, event.sequence))

    def on_granted(self, transaction_id, handle, event):
        self.heard.append(("granted", transaction_id, event.sequence))


@pytest.mark.parametrize(
    "policy", [ConflictPolicy.TWO_PHASE_LOCKING, ConflictPolicy.COMMUTATIVITY],
    ids=lambda policy: policy.value,
)
def test_a_queue_grant_fires_on_granted_once_and_never_on_executed(policy):
    scheduler = Scheduler(policy=policy)
    scheduler.register_object("P", PageType())
    recorder = Recorder()
    scheduler.add_listener(recorder)
    writer, reader = scheduler.begin(), scheduler.begin()
    assert scheduler.perform(writer.tid, "P", "write", 5).executed
    blocked = scheduler.perform(reader.tid, "P", "read")
    assert blocked.blocked
    assert recorder.heard == [("executed", writer.tid, 1)]
    scheduler.commit(writer.tid)
    assert blocked.executed and blocked.value == 5
    assert recorder.heard == [("executed", writer.tid, 1), ("granted", reader.tid, 2)]
