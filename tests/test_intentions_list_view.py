"""Recovery as the object manager realises it: the intentions-list view.

Each object keeps its committed state apart from a log of uncommitted
operations (Section 4.4, Definition 4).  Commit folds a transaction's
operations into the committed state; abort deletes them from the log, and
the visible state is the committed state with the surviving log replayed.
No type needs undo code of its own.
"""

import pytest

from repro.adts import CounterType, PageType, QueueType, SetType, StackType, TableType
from repro.core.errors import UnknownObjectError
from repro.core.policy import ConflictPolicy
from repro.core.scheduler import Scheduler

#: One updating sequence per type: (type, initial state, operations).
UPDATES = {
    "counter": (CounterType, 7, [("increment", 5), ("decrement", 2)]),
    "page": (PageType, "old", [("write", "new"), ("write", "newer")]),
    "queue": (QueueType, (1,), [("enqueue", 2), ("dequeue",)]),
    "set": (SetType, frozenset({1}), [("insert", 2), ("delete", 1)]),
    "stack": (StackType, (1,), [("push", 2), ("pop",), ("push", 3)]),
    "table": (TableType, None, [("insert", "k", 1), ("insert", "j", 2), ("delete", "k")]),
}


def scheduler_with(type_name):
    spec_class, initial, operations = UPDATES[type_name]
    scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
    scheduler.register_object("X", spec_class(), initial_state=initial)
    return scheduler, operations


@pytest.mark.parametrize("type_name", sorted(UPDATES))
def test_abort_restores_the_state_before_the_transaction(type_name):
    scheduler, operations = scheduler_with(type_name)
    before = scheduler.object_state("X")
    transaction = scheduler.begin()
    for op, *args in operations:
        assert scheduler.perform(transaction.tid, "X", op, *args).executed
    assert scheduler.object_state("X") != before
    scheduler.abort(transaction.tid)
    assert scheduler.object_state("X") == scheduler.committed_state("X") == before
    assert not scheduler.object("X").uncommitted


@pytest.mark.parametrize("type_name", sorted(UPDATES))
def test_commit_folds_the_log_into_the_committed_state(type_name):
    scheduler, operations = scheduler_with(type_name)
    transaction = scheduler.begin()
    for op, *args in operations:
        scheduler.perform(transaction.tid, "X", op, *args)
    visible = scheduler.object_state("X")
    assert scheduler.committed_state("X") != visible
    scheduler.commit(transaction.tid)
    assert scheduler.committed_state("X") == visible
    assert not scheduler.object("X").uncommitted


def test_abort_deletes_only_its_own_push_from_a_shared_log(stack_scheduler):
    # The paper's push example: T1 pushes 4, T2 pushes 2 over it; aborting
    # T1 leaves exactly T2's push in the log, replayed over the committed
    # (empty) stack.
    first, second = stack_scheduler.begin(), stack_scheduler.begin()
    stack_scheduler.perform(first.tid, "S", "push", 4)
    stack_scheduler.perform(second.tid, "S", "push", 2)
    assert stack_scheduler.object_state("S") == (4, 2)
    stack_scheduler.abort(first.tid)
    log = stack_scheduler.object("S").uncommitted
    assert [(event.transaction_id, event.invocation.args) for event in log] == [
        (second.tid, (2,))
    ]
    assert stack_scheduler.object_state("S") == (2,)
    assert stack_scheduler.committed_state("S") == ()
    stack_scheduler.commit(second.tid)
    assert stack_scheduler.committed_state("S") == (2,)


def test_interleaved_commuting_increments_undo_logically(counter_type):
    scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
    scheduler.register_object("C", counter_type)
    first, second = scheduler.begin(), scheduler.begin()
    scheduler.perform(first.tid, "C", "increment", 5)
    scheduler.perform(second.tid, "C", "increment", 3)
    assert scheduler.object_state("C") == 8
    scheduler.abort(first.tid)
    assert scheduler.object_state("C") == 3
    scheduler.commit(second.tid)
    assert scheduler.committed_state("C") == 3


def test_read_only_operations_leave_both_states_alone(counter_type):
    scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
    scheduler.register_object("C", counter_type, initial_state=6)
    transaction = scheduler.begin()
    assert scheduler.perform(transaction.tid, "C", "read").value == 6
    scheduler.abort(transaction.tid)
    assert scheduler.object_state("C") == scheduler.committed_state("C") == 6


def test_a_later_transaction_sees_committed_not_aborted_effects(counter_type):
    scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
    scheduler.register_object("C", counter_type)
    for amount, finish in ((5, "commit"), (100, "abort"), (2, "commit")):
        transaction = scheduler.begin()
        scheduler.perform(transaction.tid, "C", "increment", amount)
        getattr(scheduler, finish)(transaction.tid)
    reader = scheduler.begin()
    assert scheduler.perform(reader.tid, "C", "read").value == 7


def test_an_operation_on_an_unknown_object_raises(stack_scheduler):
    transaction = stack_scheduler.begin()
    with pytest.raises(UnknownObjectError):
        stack_scheduler.perform(transaction.tid, "missing", "push", 1)
    assert stack_scheduler.transaction(transaction.tid).operation_count == 0
