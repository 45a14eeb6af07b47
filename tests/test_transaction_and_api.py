"""Tests for the transaction record, its status machine, and the public API."""

import pytest

import repro
from repro.core import __all__ as core_all
from repro.core.errors import TransactionStateError
from repro.core.transaction import Transaction, TransactionStatus


class TestTransactionStatus:
    def test_terminated_statuses(self):
        assert TransactionStatus.COMMITTED.is_terminated
        assert TransactionStatus.ABORTED.is_terminated
        assert not TransactionStatus.ACTIVE.is_terminated
        assert not TransactionStatus.BLOCKED.is_terminated
        assert not TransactionStatus.PSEUDO_COMMITTED.is_terminated

    def test_live_statuses_include_pseudo_committed(self):
        assert TransactionStatus.PSEUDO_COMMITTED.is_live
        assert TransactionStatus.ACTIVE.is_live
        assert TransactionStatus.BLOCKED.is_live
        assert not TransactionStatus.COMMITTED.is_live
        assert not TransactionStatus.ABORTED.is_live


class TestTransactionRecord:
    def test_require_accepts_allowed_statuses(self):
        transaction = Transaction(tid=1)
        transaction.require(TransactionStatus.ACTIVE)
        transaction.require(TransactionStatus.ACTIVE, TransactionStatus.BLOCKED)

    def test_require_rejects_other_statuses(self):
        transaction = Transaction(tid=1, status=TransactionStatus.COMMITTED)
        with pytest.raises(TransactionStateError):
            transaction.require(TransactionStatus.ACTIVE)

    def test_executed_operations_are_counted_and_visits_tracked(self):
        from repro.adts import SetType, StackType

        scheduler = repro.Scheduler()
        scheduler.register_object("S", StackType())
        scheduler.register_object("X", SetType())
        transaction = scheduler.begin()
        scheduler.perform(transaction.tid, "S", "push", 1)
        scheduler.perform(transaction.tid, "X", "insert", 2)
        scheduler.perform(transaction.tid, "S", "pop")
        assert transaction.operation_count == 3
        assert transaction.objects_visited == {"S", "X"}
        assert [event.invocation.op for event in transaction.events] == ["push", "insert", "pop"]

    def test_repr_mentions_status_and_objects(self):
        transaction = Transaction(tid=3)
        assert "T3" in repr(transaction)
        assert "active" in repr(transaction)


class TestPublicApi:
    def test_version_is_exposed(self):
        assert repro.__version__ == "1.2.0"

    def test_top_level_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_all_names_resolve(self):
        import repro.core as core

        for name in core_all:
            assert hasattr(core, name), name

    def test_subpackages_import(self):
        import repro.adts
        import repro.analysis
        import repro.distributed
        import repro.sim

        assert repro.adts.paper_types() == ["page", "stack", "set", "table"]
        assert len(repro.analysis.EXPERIMENT_REGISTRY) == 22
        assert repro.sim.SimulationParameters().database_size == 1000
        assert repro.distributed.TransactionRouter().site_count == 1

    def test_headline_workflow_through_top_level_names_only(self):
        scheduler = repro.Scheduler(policy=repro.ConflictPolicy.RECOVERABILITY)
        log = repro.ExecutionLog()
        scheduler.add_listener(log)
        from repro.adts import StackType

        scheduler.register_object("S", StackType())
        t1, t2 = scheduler.begin(), scheduler.begin()
        scheduler.perform(t1.tid, "S", "push", 4)
        scheduler.perform(t2.tid, "S", "push", 2)
        assert scheduler.commit(t2.tid) is repro.TransactionStatus.PSEUDO_COMMITTED
        assert scheduler.commit(t1.tid) is repro.TransactionStatus.COMMITTED
        universe = repro.ObjectUniverse(specs={"S": StackType()})
        assert repro.is_log_sound(log, universe)
        assert repro.is_serializable(log, universe)
