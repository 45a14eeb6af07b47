"""The worked examples of Section 3.2: sequences (1), (2) and (3).

These tests replay the paper's own interleavings through the offline checkers
and through the scheduler, and verify the claims the paper makes about them:
sequence (1) is vulnerable to cascading aborts, sequence (2) is not, and in
sequence (3) recoverability lets T2 proceed without waiting for T1 while still
fixing the commit order.
"""


from repro.adts import SetType, StackType
from repro.core.history import ExecutionLog
from repro.core.policy import ConflictPolicy
from repro.core.scheduler import Scheduler
from repro.core.serializability import (
    ObjectUniverse,
    is_free_of_cascading_aborts,
    is_log_sound,
    is_serializable,
    unsound_events,
)
from repro.core.specification import Invocation
from repro.core.transaction import TransactionStatus


def set_universe(*names):
    return ObjectUniverse.uniform(SetType(), names)


class TestSequence1:
    """X: insert(3) by T1; member(3) by T2; insert(7) by T1; delete(3) by T2."""

    def build(self):
        log = ExecutionLog()
        log.append_operation("X", Invocation("insert", (3,)), "ok", 1)
        log.append_operation("X", Invocation("member", (3,)), "yes", 2)
        log.append_operation("X", Invocation("insert", (7,)), "ok", 1)
        log.append_operation("X", Invocation("delete", (3,)), "Success", 2)
        return log

    def test_t2_reads_t1_effects_so_the_log_is_unsound(self):
        log = self.build()
        universe = set_universe("X")
        assert not is_log_sound(log, universe)
        bad = unsound_events(log, universe)
        # Both of T2's operations observed the uncommitted insert(3).
        assert {event.transaction_id for event in bad} == {2}

    def test_scheduler_refuses_the_dangerous_interleaving(self):
        """Under either policy the member(3) must wait for T1, so the cascade
        can never arise in the first place."""
        for policy in (ConflictPolicy.COMMUTATIVITY, ConflictPolicy.RECOVERABILITY):
            scheduler = Scheduler(policy=policy)
            scheduler.register_object("X", SetType())
            t1, t2 = scheduler.begin(), scheduler.begin()
            assert scheduler.perform(t1.tid, "X", "insert", 3).executed
            assert scheduler.perform(t2.tid, "X", "member", 3).blocked


class TestSequence2:
    """Operations of T1 and T2 on sets X and Y that never observe each other."""

    def build(self):
        log = ExecutionLog()
        log.append_operation("X", Invocation("member", (3,)), "no", 2)
        log.append_operation("X", Invocation("insert", (3,)), "ok", 1)
        log.append_operation("Y", Invocation("insert", (4,)), "ok", 1)
        log.append_operation("Y", Invocation("delete", (5,)), "Failure", 2)
        log.append_commit(1)
        log.append_abort(2)
        return log

    def test_log_is_sound_and_cascade_free(self):
        log = self.build()
        universe = set_universe("X", "Y")
        assert is_log_sound(log, universe)
        assert is_free_of_cascading_aborts(log, universe)

    def test_t1_semantics_survive_t2_abort(self):
        log = self.build()
        universe = set_universe("X", "Y")
        reduced = log.without_transactions({2})
        from repro.core.serializability import replay_object

        state_with, _ = replay_object(log.without_transactions(log.aborted()), universe, "Y")
        state_without, _ = replay_object(reduced, universe, "Y")
        assert state_with == state_without == frozenset({4})

    def test_log_is_serializable(self):
        assert is_serializable(self.build(), set_universe("X", "Y"))

    def test_scheduler_allows_this_interleaving(self):
        scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
        scheduler.register_object("X", SetType())
        scheduler.register_object("Y", SetType())
        t1, t2 = scheduler.begin(), scheduler.begin()
        assert scheduler.perform(t2.tid, "X", "member", 3).executed
        assert scheduler.perform(t1.tid, "X", "insert", 3).executed
        assert scheduler.perform(t1.tid, "Y", "insert", 4).executed
        assert scheduler.perform(t2.tid, "Y", "delete", 5).executed
        assert scheduler.commit(t1.tid) in (
            TransactionStatus.COMMITTED,
            TransactionStatus.PSEUDO_COMMITTED,
        )
        scheduler.abort(t2.tid)
        assert scheduler.transaction(t1.tid).status is TransactionStatus.COMMITTED
        assert scheduler.committed_state("X") == frozenset({3})
        assert scheduler.committed_state("Y") == frozenset({4})


class TestSequence3:
    """S: push(4) by T1; X: member(3) by T1; S: push(2) by T2; X: insert(3) by T2."""

    def run_through_scheduler(self, policy):
        scheduler = Scheduler(policy=policy)
        log = ExecutionLog()
        scheduler.add_listener(log)
        scheduler.register_object("S", StackType())
        scheduler.register_object("X", SetType())
        t1, t2 = scheduler.begin(), scheduler.begin()
        outcomes = [
            scheduler.perform(t1.tid, "S", "push", 4),
            scheduler.perform(t1.tid, "X", "member", 3),
            scheduler.perform(t2.tid, "S", "push", 2),
            scheduler.perform(t2.tid, "X", "insert", 3),
        ]
        return scheduler, t1, t2, outcomes, log

    def test_commutativity_makes_t2_wait(self):
        scheduler = Scheduler(policy=ConflictPolicy.COMMUTATIVITY)
        scheduler.register_object("S", StackType())
        scheduler.register_object("X", SetType())
        t1, t2 = scheduler.begin(), scheduler.begin()
        assert scheduler.perform(t1.tid, "S", "push", 4).executed
        assert scheduler.perform(t1.tid, "X", "member", 3).executed
        # push(2) waits for T1's push(4); T2 cannot reach its insert(3).
        assert scheduler.perform(t2.tid, "S", "push", 2).blocked

    def test_recoverability_lets_t2_run_immediately(self):
        scheduler, t1, t2, outcomes, _ = self.run_through_scheduler(ConflictPolicy.RECOVERABILITY)
        assert all(handle.executed for handle in outcomes)
        assert scheduler.commit_dependencies(t2.tid) == {t1.tid}

    def test_commit_order_is_fixed_t1_before_t2(self):
        scheduler, t1, t2, _, log = self.run_through_scheduler(ConflictPolicy.RECOVERABILITY)
        assert scheduler.commit(t2.tid) is TransactionStatus.PSEUDO_COMMITTED
        assert scheduler.commit(t1.tid) is TransactionStatus.COMMITTED
        commit_order = [
            record.transaction_id
            for record in log.records()
            if record.kind.name == "COMMIT"
        ]
        assert commit_order == [t1.tid, t2.tid]

    def test_t2_commits_even_if_t1_aborts(self):
        """The abort of T1 must not cascade to the recoverable T2."""
        scheduler, t1, t2, _, _ = self.run_through_scheduler(ConflictPolicy.RECOVERABILITY)
        scheduler.commit(t2.tid)
        scheduler.abort(t1.tid)
        assert scheduler.transaction(t2.tid).status is TransactionStatus.COMMITTED
        assert scheduler.committed_state("S") == (2,)
        assert scheduler.committed_state("X") == frozenset({3})

    def test_resulting_log_is_sound_and_serializable(self):
        scheduler, t1, t2, _, log = self.run_through_scheduler(ConflictPolicy.RECOVERABILITY)
        scheduler.commit(t2.tid)
        scheduler.commit(t1.tid)
        universe = ObjectUniverse(
            specs={"S": StackType(), "X": SetType()},
        )
        assert is_log_sound(log, universe)
        assert is_serializable(log, universe)
