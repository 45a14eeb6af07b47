"""Tests for the execution-log machinery."""


from repro.adts import StackType
from repro.core.history import ExecutionLog, RecordKind
from repro.core.scheduler import Scheduler
from repro.core.specification import Invocation


def build_paper_sequence_1():
    """Sequence (1) of the paper: T2 reads through T1's uncommitted insert."""
    log = ExecutionLog()
    log.append_operation("X", Invocation("insert", (3,)), "ok", 1)
    log.append_operation("X", Invocation("member", (3,)), "yes", 2)
    log.append_operation("X", Invocation("insert", (7,)), "ok", 1)
    log.append_operation("X", Invocation("delete", (3,)), "ok", 2)
    return log


class TestAppend:
    def test_operations_get_increasing_sequence_numbers(self):
        log = build_paper_sequence_1()
        sequences = [event.sequence for event in log.events()]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)

    def test_append_event_reassigns_sequence(self):
        log = ExecutionLog()
        first = log.append_operation("X", Invocation("read"), 0, 1)
        clone = log.append_event(first)
        assert clone.sequence > first.sequence

    def test_termination_records(self):
        log = build_paper_sequence_1()
        log.append_commit(1)
        log.append_pseudo_commit(2)
        log.append_abort(3)
        kinds = [record.kind for record in log.records()]
        assert kinds[-3:] == [RecordKind.COMMIT, RecordKind.PSEUDO_COMMIT, RecordKind.ABORT]


class TestQueries:
    def test_events_on_and_of(self):
        log = build_paper_sequence_1()
        log.append_operation("Y", Invocation("insert", (9,)), "ok", 1)
        assert len(log.events_on("X")) == 4
        assert len(log.events_on("Y")) == 1
        assert [e.invocation.op for e in log.events_of(2)] == ["member", "delete"]

    def test_object_names_in_first_touch_order(self):
        log = build_paper_sequence_1()
        log.append_operation("Y", Invocation("insert", (9,)), "ok", 1)
        assert log.object_names() == ["X", "Y"]

    def test_transactions_committed_aborted_active(self):
        log = build_paper_sequence_1()
        log.append_commit(1)
        assert log.transactions() == {1, 2}
        assert log.committed() == {1}
        assert log.aborted() == set()
        assert log.active() == {2}

    def test_committed_before_and_terminated_before(self):
        log = ExecutionLog()
        log.append_operation("X", Invocation("read"), 0, 1)
        log.append_commit(1)
        event = log.append_operation("X", Invocation("read"), 0, 2)
        log.append_abort(2)
        assert log.committed_before(event.sequence) == {1}
        assert log.terminated_before(event.sequence) == {1}

    def test_len_and_iter(self):
        log = build_paper_sequence_1()
        assert len(log) == 4
        assert len(list(iter(log))) == 4


class TestWithoutTransactions:
    def test_removal_preserves_other_records_and_sequences(self):
        log = build_paper_sequence_1()
        reduced = log.without_transactions({1})
        assert [e.transaction_id for e in reduced.events()] == [2, 2]
        original_sequences = [e.sequence for e in log.events() if e.transaction_id == 2]
        assert [e.sequence for e in reduced.events()] == original_sequences

    def test_original_log_is_untouched(self):
        log = build_paper_sequence_1()
        log.without_transactions({1})
        assert len(log.events()) == 4


class TestRender:
    def test_render_uses_paper_notation(self):
        log = build_paper_sequence_1()
        log.append_commit(1)
        text = log.render()
        assert "X: (insert(3), 'ok', T1)" in text
        assert "(commit, T1)" in text


class TestSubscribedToAScheduler:
    """An ``ExecutionLog`` is a ``SchedulerListener``: the scheduler's log."""

    def drive(self, scheduler):
        """T2 pushes over T1's uncommitted push and pseudo-commits, T3's pop
        blocks behind both; T1's abort commits T2 and grants the pop."""
        scheduler.register_object("S", StackType())
        t1, t2, t3 = scheduler.begin(), scheduler.begin(), scheduler.begin()
        scheduler.perform(t1.tid, "S", "push", 4)
        scheduler.perform(t2.tid, "S", "push", 2)
        scheduler.commit(t2.tid)
        assert scheduler.perform(t3.tid, "S", "pop").blocked
        scheduler.abort(t1.tid)
        scheduler.commit(t3.tid)
        return t1.tid, t2.tid, t3.tid

    def test_records_every_kind_in_scheduler_order(self):
        scheduler = Scheduler()
        log = ExecutionLog()
        scheduler.add_listener(log)
        t1, t2, t3 = self.drive(scheduler)
        assert [(r.kind, r.transaction_id) for r in log.records()] == [
            (RecordKind.OPERATION, t1),
            (RecordKind.OPERATION, t2),
            (RecordKind.PSEUDO_COMMIT, t2),
            (RecordKind.ABORT, t1),
            (RecordKind.COMMIT, t2),
            (RecordKind.OPERATION, t3),
            (RecordKind.COMMIT, t3),
        ]
        assert [e.value for e in log.events()] == ["ok", "ok", 2]
        sequences = [r.sequence for r in log.records()]
        assert sequences == sorted(sequences)

    def test_a_scheduler_without_a_log_records_nothing(self):
        scheduler = Scheduler()
        self.drive(scheduler)
        assert not hasattr(scheduler, "history")

    def test_the_log_outlives_a_crash_and_a_reset(self):
        scheduler = Scheduler()
        log = ExecutionLog()
        scheduler.add_listener(log)
        self.drive(scheduler)
        scheduler.discard_volatile()
        scheduler.reset()
        assert len(log) == 7
        transaction = scheduler.begin()
        scheduler.perform(transaction.tid, "S", "push", 1)
        assert len(log) == 8
