"""Figure 2 admission, checked against its definition after every event.

The stream pins prove the semantic conflict path *stable*; these tests prove
it *right*.  Seeded read/write and abstract-data-type runs under the
recoverability and commutativity policies — fair and unfair, centralized and
three sites with quorum R2/W2, two-phase commit and scripted double crashes —
are driven one engine event at a time, and between every two events each live
scheduler must satisfy the paper's definitions.  The checker walks each
object's execution log with ``classify_pair``; it never reads the operation
groups the scheduler classifies through (except to recount them):

* **no conflict executed** — no two live transactions hold a ``CONFLICT``
  pair, later over earlier in execution order, on any object;
* **every recoverable pair is ordered** — a ``RECOVERABLE`` pair, later over
  earlier, has its commit-dependency edge later -> earlier;
* **complete wait-for sets** — a blocked transaction's wait-for successors
  equal the conflict set from first principles: the owners of conflicting
  uncommitted operations, plus — when scheduling is fair — the owners of
  conflicting requests queued ahead of it;
* **states are folds** — the visible state is the committed state with the
  uncommitted log folded over it (checked on the read/write runs with real
  page values);
* **indexes are recounts** — every operation group's owners, and the events
  listed per transaction, equal a recount of the log;
* **no cycle survives** — the dependency graph is acyclic and its maintained
  topological order is valid.
"""

import pytest
from page_values import keep_page_values
from stepping import CheckedSimulation as SteppedSimulation
from stepping import double_crashes, find_cycle, schedulers_of

from repro.adts import PageType
from repro.core.compatibility import ConflictClass
from repro.core.dependency_graph import EdgeKind
from repro.core.policy import ConflictPolicy
from repro.core.scheduler import Scheduler
from repro.core.transaction import TransactionStatus
from repro.sim.params import SimulationParameters
from repro.sim.simulator import run_simulation

SEEDS = (1, 7, 13)
POLICIES = (ConflictPolicy.RECOVERABILITY, ConflictPolicy.COMMUTATIVITY)


# ----------------------------------------------------------------------
# The definition
# ----------------------------------------------------------------------
def check_object(scheduler, manager):
    policy, graph = scheduler.policy, scheduler.graph
    log = manager.uncommitted
    if not log:
        # An idle object (most are, most of the time): nothing is indexed.
        assert not manager._op_groups and not manager.live_transactions()
        assert manager.current_state is manager.committed_state
        return
    for position, later in enumerate(log):
        assert scheduler.transactions[later.transaction_id].status.is_live, later
        for earlier in log[:position]:
            if earlier.transaction_id == later.transaction_id:
                continue
            assert earlier.sequence < later.sequence
            pairwise = manager.classify_pair(later.invocation, earlier.invocation, policy)
            assert pairwise is not ConflictClass.CONFLICT, (manager.name, earlier, later)
            if pairwise is ConflictClass.RECOVERABLE:
                assert graph.has_edge(
                    later.transaction_id, earlier.transaction_id, EdgeKind.COMMIT_DEPENDENCY
                ), (manager.name, earlier, later)

    if manager.materialize_state:
        state = manager.committed_state
        for event in log:
            state = manager.spec.next_state(state, event.invocation)
        assert manager.spec.states_equal(manager.current_state, state), manager.name

    operations = manager.compatibility.operations
    recount, by_transaction = {}, {}
    for event in log:
        invocation = event.invocation
        key = (operations.index(invocation.op), manager.spec.conflict_parameter(invocation))
        owners = recount.setdefault(key, {})
        owners[event.transaction_id] = owners.get(event.transaction_id, 0) + 1
        by_transaction.setdefault(event.transaction_id, []).append(event)
    assert recount == manager._op_groups
    assert manager.live_transactions() == set(by_transaction)
    for tid, events in by_transaction.items():
        assert manager.events_of(tid) == events


def check_scheduler(scheduler):
    for manager in scheduler.objects.values():
        check_object(scheduler, manager)

    policy = scheduler.policy
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
        expected = {
            event.transaction_id for event in manager.uncommitted
            if event.transaction_id != transaction.tid
            and manager.classify_pair(request.invocation, event.invocation, policy)
            is ConflictClass.CONFLICT
        }
        if scheduler.fair:
            expected |= {
                ahead.transaction_id for ahead in manager.blocked[:position]
                if manager.classify_pair(request.invocation, ahead.invocation, policy)
                is ConflictClass.CONFLICT
            }
        assert expected, ("blocked behind nobody", transaction, name)
        assert waiting_for == expected, (transaction, name)

    graph = scheduler.graph
    assert find_cycle([(edge.source, edge.target) for edge in graph.edges()]) is None
    assert graph.order_violations() == []


class CheckedSimulation(SteppedSimulation):
    """The lock-table suite's stepper — a check between every two engine
    events — holding the schedulers to the definition above instead."""

    check = staticmethod(check_scheduler)


def contended_params(policy, seed, fair, sites):
    overrides = dict(
        policy=policy, seed=seed, fair_scheduling=fair,
        database_size=30, mpl_level=12, total_completions=60,
    )
    if sites > 1:
        overrides.update(
            total_completions=24,
            site_count=sites, replication="copies", replication_protocol="quorum",
            quorum_read=2, quorum_write=2, commit_protocol="two-phase", msg_time=0.002,
            failure_schedule=double_crashes(period=4, until=400),
        )
    return SimulationParameters(**overrides)


#: workload kind, and whether read/write pages carry real values (so that
#: "states are folds" is checked; the simulations' default skips them).
WORKLOADS = {
    "readwrite": ("readwrite", False),
    "readwrite-values": ("readwrite", True),
    "adt": ("adt", False),
}


class TestInvariantsBetweenEveryTwoEvents:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fair", [True, False], ids=["fair", "unfair"])
    @pytest.mark.parametrize("sites", [1, 3], ids=["central", "q3-2pc-crash"])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda policy: policy.value)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_stepped_run_never_leaves_the_definition(
        self, workload, policy, sites, fair, seed, monkeypatch
    ):
        workload_kind, page_values = WORKLOADS[workload]
        if page_values:
            keep_page_values(monkeypatch)
        params = contended_params(policy, seed, fair, sites)
        simulation = CheckedSimulation(params, workload_kind=workload_kind)
        metrics = simulation.run()
        counters = metrics.counters()
        assert simulation.checks >= counters["events_processed"]
        # The run was contended enough for every invariant to have had teeth.
        assert counters["blocks"] > 20 and counters["aborts"] > 0
        if policy is ConflictPolicy.RECOVERABILITY:
            assert counters["commit_dependency_edges"] > 0 and counters["pseudo_commits"] > 0
        if sites > 1:
            assert counters["replication_catchups"] > 0
        if page_values:
            # The folds were over real values: some committed write landed.
            managers = [
                manager for scheduler in schedulers_of(simulation)
                for manager in scheduler.objects.values()
            ]
            assert managers and all(manager.materialize_state for manager in managers)
            assert any(manager.committed_state != 0 for manager in managers)
        # Stepping changes nothing: the unstepped run is the same run.
        assert counters == run_simulation(params, workload_kind=workload_kind).counters()

    def test_the_checker_has_teeth(self):
        """A dropped edge of either kind, a skewed owner count and a stale
        visible state are each caught."""
        scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
        page = scheduler.register_object("P", PageType())
        reader, writer, late_reader = scheduler.begin(), scheduler.begin(), scheduler.begin()
        assert scheduler.perform(reader.tid, "P", "read").executed
        assert scheduler.perform(writer.tid, "P", "write", 1).executed
        assert scheduler.perform(late_reader.tid, "P", "read").blocked
        check_scheduler(scheduler)

        scheduler.graph.remove_edges_from(writer.tid, EdgeKind.COMMIT_DEPENDENCY)
        with pytest.raises(AssertionError):
            check_scheduler(scheduler)
        scheduler.graph.add_edge(writer.tid, reader.tid, EdgeKind.COMMIT_DEPENDENCY)
        check_scheduler(scheduler)

        scheduler.graph.remove_edges_from(late_reader.tid, EdgeKind.WAIT_FOR)
        with pytest.raises(AssertionError):
            check_scheduler(scheduler)
        scheduler.graph.add_edge(late_reader.tid, writer.tid, EdgeKind.WAIT_FOR)
        check_scheduler(scheduler)

        (read_owners,) = [owners for owners in page._op_groups.values() if reader.tid in owners]
        read_owners[reader.tid] += 1
        with pytest.raises(AssertionError):
            check_scheduler(scheduler)
        read_owners[reader.tid] -= 1
        check_scheduler(scheduler)

        page.current_state = 99
        with pytest.raises(AssertionError):
            check_scheduler(scheduler)
        page.current_state = 1

        # A conflict in the log: the blocked read executed over the write.
        page.execute(page.blocked[0].invocation, late_reader.tid, sequence=3)
        with pytest.raises(AssertionError):
            check_scheduler(scheduler)
