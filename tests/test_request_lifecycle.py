"""One request lifecycle: a handle per request, kept with its final outcome.

Figure 2 gives a request one of three outcomes: it executes, it blocks, or
its transaction aborts.  :meth:`Scheduler.perform` returns a
:class:`RequestHandle` reporting that outcome.  The handle is built once per
request, is updated in place when a blocked request is granted or dropped,
and keeps its final status and value after its transaction ends — on every
backend, whether or not the scheduler retains terminated transactions.
"""

import pytest
from stepping import schedulers_of

from repro.adts import StackType
from repro.core.policy import ConflictPolicy
from repro.core.requests import AbortReason, RequestStatus
from repro.core.scheduler import Scheduler, SchedulerListener
from repro.sim.params import SimulationParameters
from repro.sim.simulator import Simulation

POLICIES = {
    "commutativity": ConflictPolicy.COMMUTATIVITY,
    "recoverability": ConflictPolicy.RECOVERABILITY,
    "two-phase-locking": ConflictPolicy.TWO_PHASE_LOCKING,
}

policies = pytest.mark.parametrize("policy_name", sorted(POLICIES))


def stacks(policy_name, *names, retain_terminated=True):
    scheduler = Scheduler(
        policy=POLICIES[policy_name], retain_terminated=retain_terminated
    )
    for name in names:
        scheduler.register_object(name, StackType())
    return scheduler


@policies
def test_executed_handle_keeps_its_value_after_commit(policy_name):
    scheduler = stacks(policy_name, "S")
    transaction = scheduler.begin()
    push = scheduler.perform(transaction.tid, "S", "push", 4)
    top = scheduler.perform(transaction.tid, "S", "top")
    scheduler.commit(transaction.tid)
    assert (push.status, push.value) == (RequestStatus.EXECUTED, "ok")
    assert (top.status, top.value) == (RequestStatus.EXECUTED, 4)
    assert push.transaction_id == top.transaction_id == transaction.tid


@policies
def test_executed_handle_stays_executed_when_its_transaction_aborts(policy_name):
    # The handle reports the request's outcome, not the transaction's: the
    # operation did execute before the abort deleted it from the log.
    scheduler = stacks(policy_name, "S")
    transaction = scheduler.begin()
    push = scheduler.perform(transaction.tid, "S", "push", 4)
    scheduler.abort(transaction.tid)
    assert push.executed and push.value == "ok"
    assert push.abort_reason is None
    assert scheduler.object_state("S") == ()


@policies
def test_blocked_handle_is_granted_in_place_and_keeps_its_value(policy_name):
    scheduler = stacks(policy_name, "S")
    pusher, popper = scheduler.begin(), scheduler.begin()
    scheduler.perform(pusher.tid, "S", "push", 4)
    pop = scheduler.perform(popper.tid, "S", "pop")
    assert pop.blocked and pop.value is None
    scheduler.commit(pusher.tid)
    assert pop.executed and pop.value == 4
    scheduler.commit(popper.tid)
    assert (pop.status, pop.value, pop.transaction_id) == (
        RequestStatus.EXECUTED, 4, popper.tid,
    )


@policies
def test_blocked_handle_of_an_aborted_waiter_reports_the_abort(policy_name):
    scheduler = stacks(policy_name, "S")
    pusher, popper = scheduler.begin(), scheduler.begin()
    scheduler.perform(pusher.tid, "S", "push", 4)
    pop = scheduler.perform(popper.tid, "S", "pop")
    scheduler.abort(popper.tid)
    assert pop.aborted and pop.abort_reason is AbortReason.USER
    scheduler.commit(pusher.tid)
    # The pusher's termination retries the queue; the dropped request
    # stays aborted and is not granted behind its transaction's back.
    assert pop.aborted and pop.value is None
    assert scheduler.committed_state("S") == (4,)


@policies
def test_deadlock_victim_handle_names_the_deadlock(policy_name):
    scheduler = stacks(policy_name, "A", "B")
    first, second = scheduler.begin(), scheduler.begin()
    scheduler.perform(first.tid, "A", "push", 1)
    scheduler.perform(second.tid, "B", "push", 2)
    waiter = scheduler.perform(first.tid, "B", "pop")
    assert waiter.blocked
    victim = scheduler.perform(second.tid, "A", "pop")
    assert victim.aborted and victim.abort_reason is AbortReason.DEADLOCK
    # The victim's abort deleted its push, so the waiter's pop was granted
    # on the now-empty stack, in place.
    assert waiter.executed and waiter.value is None
    assert waiter.abort_reason is None


@policies
def test_each_request_gets_a_fresh_handle(policy_name):
    scheduler = stacks(policy_name, "S")
    handles = []
    for element in (1, 2, 3):
        transaction = scheduler.begin()
        handles.append(scheduler.perform(transaction.tid, "S", "push", element))
        scheduler.commit(transaction.tid)
    assert len({id(handle) for handle in handles}) == len(handles)
    assert [handle.transaction_id for handle in handles] == [1, 2, 3]
    assert [handle.invocation.args for handle in handles] == [(1,), (2,), (3,)]
    assert all(handle.executed for handle in handles)


@policies
def test_handles_outlive_dropped_transaction_records(policy_name):
    scheduler = stacks(policy_name, "S", retain_terminated=False)
    pusher, popper = scheduler.begin(), scheduler.begin()
    push = scheduler.perform(pusher.tid, "S", "push", 4)
    pop = scheduler.perform(popper.tid, "S", "pop")
    scheduler.commit(pusher.tid)
    scheduler.commit(popper.tid)
    assert not scheduler.transactions
    assert (push.status, push.value) == (RequestStatus.EXECUTED, "ok")
    assert (pop.status, pop.value) == (RequestStatus.EXECUTED, 4)


def test_dependency_cycle_victim_handle_names_the_cycle():
    # Pushes are recoverable relative to each other: each one executes with
    # a commit dependency, and the second pair would close a cycle.
    scheduler = stacks("recoverability", "A", "B")
    first, second = scheduler.begin(), scheduler.begin()
    scheduler.perform(first.tid, "A", "push", 1)
    assert scheduler.perform(second.tid, "A", "push", 2).executed
    assert scheduler.perform(second.tid, "B", "push", 3).executed
    closing = scheduler.perform(first.tid, "B", "push", 4)
    assert closing.aborted
    assert closing.abort_reason is AbortReason.DEPENDENCY_CYCLE
    assert closing.value is None


class _HandleRecorder(SchedulerListener):
    """Every handle a scheduler hands out, and how each transaction ended."""

    def __init__(self):
        self.handles = []
        self.blocked = []
        self.committed = set()
        self.aborted = set()

    def on_executed(self, transaction_id, handle, event):
        self.handles.append(handle)

    def on_blocked(self, transaction_id, handle):
        self.handles.append(handle)
        self.blocked.append(handle)

    def on_committed(self, transaction_id):
        self.committed.add(transaction_id)

    def on_aborted(self, transaction_id, reason):
        self.aborted.add(transaction_id)


@pytest.mark.parametrize("sites", (1, 3))
@policies
def test_no_handle_of_a_terminated_transaction_stays_blocked(policy_name, sites):
    overrides = dict(
        mpl_level=12, total_completions=120, database_size=40, seed=9,
        policy=POLICIES[policy_name],
    )
    if sites > 1:
        overrides.update(site_count=sites, replication="copies")
    simulation = Simulation(SimulationParameters(**overrides), "readwrite")
    recorders = []
    for scheduler in schedulers_of(simulation):
        recorders.append(_HandleRecorder())
        scheduler.add_listener(recorders[-1])
    simulation.run()
    for recorder in recorders:
        assert recorder.committed
        for handle in recorder.handles:
            if handle.transaction_id in recorder.committed:
                assert handle.executed
            elif handle.transaction_id in recorder.aborted:
                assert handle.executed or handle.aborted
    assert any(recorder.blocked for recorder in recorders)
