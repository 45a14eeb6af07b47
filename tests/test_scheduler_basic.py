"""Basic scheduler behaviour: execution, blocking, commit, abort."""

import pytest

from repro.adts import CounterType, SetType, StackType
from repro.core.errors import TransactionStateError, UnknownObjectError
from repro.core.history import ExecutionLog
from repro.core.policy import ConflictPolicy
from repro.core.scheduler import Scheduler, SchedulerListener
from repro.core.transaction import TransactionStatus


class TestSetupAndLifecycle:
    def test_begin_assigns_increasing_ids(self, stack_scheduler):
        first, second = stack_scheduler.begin(), stack_scheduler.begin()
        assert second.tid == first.tid + 1

    def test_unknown_object_raises(self, stack_scheduler):
        transaction = stack_scheduler.begin()
        with pytest.raises(UnknownObjectError):
            stack_scheduler.perform(transaction.tid, "missing", "push", 1)

    def test_unknown_transaction_raises(self, stack_scheduler):
        with pytest.raises(TransactionStateError):
            stack_scheduler.perform(999, "S", "push", 1)

    def test_commit_of_blocked_transaction_is_rejected(self, stack_scheduler):
        first, second = stack_scheduler.begin(), stack_scheduler.begin()
        stack_scheduler.perform(first.tid, "S", "push", 1)
        blocked = stack_scheduler.perform(second.tid, "S", "pop")
        assert blocked.blocked
        with pytest.raises(TransactionStateError):
            stack_scheduler.commit(second.tid)

    def test_double_commit_is_rejected(self, stack_scheduler):
        transaction = stack_scheduler.begin()
        stack_scheduler.perform(transaction.tid, "S", "push", 1)
        stack_scheduler.commit(transaction.tid)
        with pytest.raises(TransactionStateError):
            stack_scheduler.commit(transaction.tid)

    def test_abort_of_terminated_transaction_is_rejected(self, stack_scheduler):
        transaction = stack_scheduler.begin()
        stack_scheduler.commit(transaction.tid)
        with pytest.raises(TransactionStateError):
            stack_scheduler.abort(transaction.tid)

    def test_empty_transaction_commits_directly(self, stack_scheduler):
        transaction = stack_scheduler.begin()
        assert stack_scheduler.commit(transaction.tid) is TransactionStatus.COMMITTED


class TestExecutionPaths:
    def test_commuting_operations_run_concurrently(self, recoverability_scheduler):
        scheduler = recoverability_scheduler
        scheduler.register_object("X", SetType())
        first, second = scheduler.begin(), scheduler.begin()
        assert scheduler.perform(first.tid, "X", "insert", 1).executed
        assert scheduler.perform(second.tid, "X", "insert", 2).executed
        assert scheduler.commit(first.tid) is TransactionStatus.COMMITTED
        assert scheduler.commit(second.tid) is TransactionStatus.COMMITTED
        assert scheduler.committed_state("X") == frozenset({1, 2})

    def test_recoverable_operation_executes_with_commit_dependency(self, stack_scheduler):
        scheduler = stack_scheduler
        first, second = scheduler.begin(), scheduler.begin()
        scheduler.perform(first.tid, "S", "push", 4)
        handle = scheduler.perform(second.tid, "S", "push", 2)
        assert handle.executed and handle.value == "ok"
        assert scheduler.commit_dependencies(second.tid) == {first.tid}
        assert scheduler.object_state("S") == (4, 2)

    def test_conflicting_operation_blocks(self, stack_scheduler):
        scheduler = stack_scheduler
        first, second = scheduler.begin(), scheduler.begin()
        scheduler.perform(first.tid, "S", "push", 4)
        handle = scheduler.perform(second.tid, "S", "pop")
        assert handle.blocked
        assert scheduler.transaction(second.tid).status is TransactionStatus.BLOCKED
        assert scheduler.waiting_for(second.tid) == {first.tid}
        assert scheduler.stats.blocks == 1

    def test_blocked_request_granted_after_commit(self, stack_scheduler):
        scheduler = stack_scheduler
        first, second = scheduler.begin(), scheduler.begin()
        scheduler.perform(first.tid, "S", "push", 4)
        handle = scheduler.perform(second.tid, "S", "pop")
        scheduler.commit(first.tid)
        assert handle.executed
        assert handle.value == 4
        assert scheduler.transaction(second.tid).status is TransactionStatus.ACTIVE

    def test_blocked_request_granted_after_abort(self, stack_scheduler):
        scheduler = stack_scheduler
        first, second = scheduler.begin(), scheduler.begin()
        scheduler.perform(first.tid, "S", "push", 4)
        handle = scheduler.perform(second.tid, "S", "pop")
        scheduler.abort(first.tid)
        assert handle.executed
        assert handle.value is None  # the push was undone; the stack is empty

    def test_user_abort_undoes_effects(self, recoverability_scheduler):
        scheduler = recoverability_scheduler
        scheduler.register_object("C", CounterType())
        transaction = scheduler.begin()
        scheduler.perform(transaction.tid, "C", "increment", 5)
        scheduler.abort(transaction.tid)
        assert scheduler.object_state("C") == 0
        assert scheduler.transaction(transaction.tid).status is TransactionStatus.ABORTED
        assert scheduler.stats.user_aborts == 1

    def test_values_returned_match_visible_state(self, recoverability_scheduler):
        scheduler = recoverability_scheduler
        scheduler.register_object("X", SetType())
        first, second = scheduler.begin(), scheduler.begin()
        scheduler.perform(first.tid, "X", "insert", 3)
        member = scheduler.perform(second.tid, "X", "member", 3)
        # member conflicts with the uncommitted insert (not recoverable), so it blocks.
        assert member.blocked
        scheduler.commit(first.tid)
        assert member.executed and member.value == "yes"

    def test_perform_on_own_prior_operations_never_conflicts(self, stack_scheduler):
        scheduler = stack_scheduler
        transaction = scheduler.begin()
        scheduler.perform(transaction.tid, "S", "push", 1)
        handle = scheduler.perform(transaction.tid, "S", "pop")
        assert handle.executed and handle.value == 1


class TestStatisticsAndIntrospection:
    def test_operation_and_commit_counters(self, stack_scheduler):
        scheduler = stack_scheduler
        transaction = scheduler.begin()
        scheduler.perform(transaction.tid, "S", "push", 1)
        scheduler.perform(transaction.tid, "S", "pop")
        scheduler.commit(transaction.tid)
        assert scheduler.stats.operations_executed == 2
        assert scheduler.stats.commits == 1
        assert scheduler.stats.pseudo_commits == 0

    def test_history_records_operations_and_terminations(self, stack_scheduler):
        scheduler = stack_scheduler
        log = ExecutionLog()
        scheduler.add_listener(log)
        transaction = scheduler.begin()
        scheduler.perform(transaction.tid, "S", "push", 1)
        scheduler.commit(transaction.tid)
        assert len(log.events()) == 1
        assert log.committed() == {transaction.tid}

    def test_retain_terminated_false_drops_records(self):
        scheduler = Scheduler(retain_terminated=False)
        scheduler.register_object("S", StackType())
        transaction = scheduler.begin()
        scheduler.perform(transaction.tid, "S", "push", 1)
        scheduler.commit(transaction.tid)
        assert transaction.tid not in scheduler.transactions

    def test_live_transactions_include_pseudo_committed(self, stack_scheduler):
        scheduler = stack_scheduler
        first, second = scheduler.begin(), scheduler.begin()
        scheduler.perform(first.tid, "S", "push", 4)
        scheduler.perform(second.tid, "S", "push", 2)
        scheduler.commit(second.tid)
        live_ids = {t.tid for t in scheduler.live_transactions()}
        assert live_ids == {first.tid, second.tid}

    def test_average_abort_length(self, stack_scheduler):
        scheduler = stack_scheduler
        transaction = scheduler.begin()
        scheduler.perform(transaction.tid, "S", "push", 1)
        scheduler.perform(transaction.tid, "S", "push", 2)
        scheduler.abort(transaction.tid)
        assert scheduler.stats.average_abort_length == 2.0


class RecordingListener(SchedulerListener):
    def __init__(self):
        self.calls = []

    def on_executed(self, transaction_id, handle, event):
        self.calls.append(("executed", transaction_id))

    def on_blocked(self, transaction_id, handle):
        self.calls.append(("blocked", transaction_id))

    def on_granted(self, transaction_id, handle, event):
        self.calls.append(("granted", transaction_id))

    def on_aborted(self, transaction_id, reason):
        self.calls.append(("aborted", transaction_id, reason))

    def on_pseudo_committed(self, transaction_id):
        self.calls.append(("pseudo", transaction_id))

    def on_committed(self, transaction_id):
        self.calls.append(("committed", transaction_id))


class TestListeners:
    def test_listener_sees_full_lifecycle(self, stack_type):
        scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
        scheduler.register_object("S", stack_type)
        listener = RecordingListener()
        scheduler.add_listener(listener)
        first, second = scheduler.begin(), scheduler.begin()
        scheduler.perform(first.tid, "S", "push", 4)
        scheduler.perform(second.tid, "S", "pop")       # blocks
        scheduler.commit(first.tid)                      # grants the pop
        scheduler.commit(second.tid)
        kinds = [call[0] for call in listener.calls]
        assert kinds == ["executed", "blocked", "committed", "granted", "committed"]
