"""Tests for the pseudo-commit / commit protocol of Section 4.3."""

import pytest

from repro.adts import QueueType, StackType
from repro.core.history import ExecutionLog
from repro.core.policy import ConflictPolicy
from repro.core.scheduler import Scheduler
from repro.core.transaction import TransactionStatus


@pytest.fixture
def scheduler():
    s = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
    s.register_object("S", StackType())
    s.register_object("Q", QueueType())
    return s


class TestPseudoCommit:
    def test_dependent_transaction_pseudo_commits(self, scheduler):
        first, second = scheduler.begin(), scheduler.begin()
        scheduler.perform(first.tid, "S", "push", 4)
        scheduler.perform(second.tid, "S", "push", 2)
        assert scheduler.commit(second.tid) is TransactionStatus.PSEUDO_COMMITTED
        assert scheduler.transaction(second.tid).status is TransactionStatus.PSEUDO_COMMITTED
        assert scheduler.stats.pseudo_commits == 1
        # Effects are not yet durable: the committed state is still empty.
        assert scheduler.committed_state("S") == ()
        assert scheduler.object_state("S") == (4, 2)

    def test_pseudo_committed_commits_when_dependency_commits(self, scheduler):
        first, second = scheduler.begin(), scheduler.begin()
        scheduler.perform(first.tid, "S", "push", 4)
        scheduler.perform(second.tid, "S", "push", 2)
        scheduler.commit(second.tid)
        assert scheduler.commit(first.tid) is TransactionStatus.COMMITTED
        assert scheduler.transaction(second.tid).status is TransactionStatus.COMMITTED
        assert scheduler.committed_state("S") == (4, 2)
        assert scheduler.stats.commits == 2

    def test_pseudo_committed_commits_when_dependency_aborts(self, scheduler):
        """Recoverability's key property: no cascading aborts.

        The transaction the pseudo-committed one depends on aborts; the
        pseudo-committed transaction still commits, and the aborted push is
        undone underneath the surviving one.
        """
        first, second = scheduler.begin(), scheduler.begin()
        scheduler.perform(first.tid, "S", "push", 4)
        scheduler.perform(second.tid, "S", "push", 2)
        scheduler.commit(second.tid)
        scheduler.abort(first.tid)
        assert scheduler.transaction(second.tid).status is TransactionStatus.COMMITTED
        assert scheduler.committed_state("S") == (2,)
        assert scheduler.stats.commits == 1
        assert scheduler.stats.aborts == 1

    def test_independent_transaction_commits_directly(self, scheduler):
        first = scheduler.begin()
        scheduler.perform(first.tid, "S", "push", 4)
        assert scheduler.commit(first.tid) is TransactionStatus.COMMITTED
        assert scheduler.stats.pseudo_commits == 0

    def test_commit_order_follows_invocation_order(self, scheduler):
        """If both commit, the earlier invoker must become durable first."""
        log = ExecutionLog()
        scheduler.add_listener(log)
        first, second = scheduler.begin(), scheduler.begin()
        scheduler.perform(first.tid, "S", "push", 4)
        scheduler.perform(second.tid, "S", "push", 2)
        # Committing the later transaction first only pseudo-commits it...
        assert scheduler.commit(second.tid) is TransactionStatus.PSEUDO_COMMITTED
        # ...and the earlier one commits directly when asked.
        assert scheduler.commit(first.tid) is TransactionStatus.COMMITTED
        commit_order = [
            record.transaction_id
            for record in log.records()
            if record.kind.name == "COMMIT"
        ]
        assert commit_order == [first.tid, second.tid]


class TestDependencyChains:
    def test_chain_of_three_pseudo_commits_cascades(self, scheduler):
        t1, t2, t3 = scheduler.begin(), scheduler.begin(), scheduler.begin()
        scheduler.perform(t1.tid, "S", "push", 1)
        scheduler.perform(t2.tid, "S", "push", 2)
        scheduler.perform(t3.tid, "S", "push", 3)
        assert scheduler.commit(t3.tid) is TransactionStatus.PSEUDO_COMMITTED
        assert scheduler.commit(t2.tid) is TransactionStatus.PSEUDO_COMMITTED
        # Committing the head of the chain cascades through the whole chain.
        assert scheduler.commit(t1.tid) is TransactionStatus.COMMITTED
        assert scheduler.transaction(t2.tid).status is TransactionStatus.COMMITTED
        assert scheduler.transaction(t3.tid).status is TransactionStatus.COMMITTED
        assert scheduler.committed_state("S") == (1, 2, 3)

    def test_chain_with_abort_in_the_middle(self, scheduler):
        t1, t2, t3 = scheduler.begin(), scheduler.begin(), scheduler.begin()
        scheduler.perform(t1.tid, "S", "push", 1)
        scheduler.perform(t2.tid, "S", "push", 2)
        scheduler.perform(t3.tid, "S", "push", 3)
        scheduler.commit(t3.tid)
        scheduler.abort(t2.tid)
        # T3 now depends only on T1 and stays pseudo-committed until T1 ends.
        assert scheduler.transaction(t3.tid).status is TransactionStatus.PSEUDO_COMMITTED
        scheduler.commit(t1.tid)
        assert scheduler.transaction(t3.tid).status is TransactionStatus.COMMITTED
        assert scheduler.committed_state("S") == (1, 3)

    def test_dependencies_across_multiple_objects(self, scheduler):
        t1, t2 = scheduler.begin(), scheduler.begin()
        scheduler.perform(t1.tid, "S", "push", 1)
        scheduler.perform(t1.tid, "Q", "enqueue", "a")
        scheduler.perform(t2.tid, "S", "push", 2)
        scheduler.perform(t2.tid, "Q", "enqueue", "b")
        assert scheduler.commit_dependencies(t2.tid) == {t1.tid}
        assert scheduler.commit(t2.tid) is TransactionStatus.PSEUDO_COMMITTED
        scheduler.commit(t1.tid)
        assert scheduler.committed_state("S") == (1, 2)
        assert scheduler.committed_state("Q") == ("a", "b")

    def test_pseudo_committed_operations_still_cause_conflicts(self, scheduler):
        """The paper: a pseudo-committed transaction's operations remain in the
        log and participate in conflict detection until the durable commit."""
        t1, t2, t3 = scheduler.begin(), scheduler.begin(), scheduler.begin()
        scheduler.perform(t1.tid, "S", "push", 1)
        scheduler.perform(t2.tid, "S", "push", 2)
        scheduler.commit(t2.tid)  # pseudo-committed, push(2) still uncommitted
        handle = scheduler.perform(t3.tid, "S", "pop")
        assert handle.blocked
        assert scheduler.waiting_for(t3.tid) == {t1.tid, t2.tid}

    def test_fan_in_dependency(self, scheduler):
        """One transaction depending on two predecessors commits only after both."""
        t1, t2, t3 = scheduler.begin(), scheduler.begin(), scheduler.begin()
        scheduler.perform(t1.tid, "S", "push", 1)
        scheduler.perform(t2.tid, "Q", "enqueue", "x")
        scheduler.perform(t3.tid, "S", "push", 3)
        scheduler.perform(t3.tid, "Q", "enqueue", "y")
        assert scheduler.commit(t3.tid) is TransactionStatus.PSEUDO_COMMITTED
        scheduler.commit(t1.tid)
        assert scheduler.transaction(t3.tid).status is TransactionStatus.PSEUDO_COMMITTED
        scheduler.commit(t2.tid)
        assert scheduler.transaction(t3.tid).status is TransactionStatus.COMMITTED
