"""Tests for the per-object manager: classification, execution, removal."""

import gc
import tracemalloc

import pytest
from test_log_removal_oracle import RebuildingManager

from repro.adts import PageType, QueueType, SetType, StackType, TableType
from repro.core.compatibility import Answer, CompatibilitySpec, ConflictClass, RelationTable
from repro.core.errors import SpecificationError, UnknownOperationError
from repro.core.object_manager import _NO_LOG, ObjectManager, PendingRequest
from repro.core.policy import ConflictPolicy, effective_class
from repro.core.scheduler import Scheduler
from repro.core.specification import (
    FunctionalTypeSpecification,
    Invocation,
    OperationResult,
    OperationSpec,
)
from repro.core.transaction import TransactionStatus
from repro.sim import RandomSource, Simulation, SimulationParameters
from repro.sim.workload import random_compatibility_table


def make_stack_manager(**kwargs):
    kwargs.setdefault("initial_state", ())
    return ObjectManager(name="S", spec=StackType(), **kwargs)


class TestClassification:
    def test_empty_log_is_commutative(self):
        manager = make_stack_manager()
        result = manager.classify_request(Invocation("push", (1,)), 1, ConflictPolicy.RECOVERABILITY)
        assert result == (set(), set())

    def test_own_operations_are_ignored(self):
        manager = make_stack_manager()
        manager.execute(Invocation("push", (1,)), transaction_id=1, sequence=1)
        result = manager.classify_request(Invocation("pop"), 1, ConflictPolicy.RECOVERABILITY)
        assert result == (set(), set())

    def test_recoverable_classification(self):
        manager = make_stack_manager()
        manager.execute(Invocation("push", (1,)), transaction_id=1, sequence=1)
        result = manager.classify_request(Invocation("push", (2,)), 2, ConflictPolicy.RECOVERABILITY)
        assert result == (set(), {1})

    def test_conflict_classification(self):
        manager = make_stack_manager()
        manager.execute(Invocation("push", (1,)), transaction_id=1, sequence=1)
        result = manager.classify_request(Invocation("pop"), 2, ConflictPolicy.RECOVERABILITY)
        assert result == ({1}, set())

    def test_commutativity_policy_downgrades_recoverable(self):
        manager = make_stack_manager()
        manager.execute(Invocation("push", (1,)), transaction_id=1, sequence=1)
        result = manager.classify_request(Invocation("push", (2,)), 2, ConflictPolicy.COMMUTATIVITY)
        assert result == ({1}, set())

    def test_conflict_wins_over_recoverable_for_same_transaction(self):
        manager = make_stack_manager()
        manager.execute(Invocation("push", (1,)), transaction_id=1, sequence=1)
        manager.execute(Invocation("pop"), transaction_id=1, sequence=2)
        # push is recoverable w.r.t. both, pop conflicts with a later pop.
        result = manager.classify_request(Invocation("pop"), 2, ConflictPolicy.RECOVERABILITY)
        assert result == ({1}, set())

    def test_classify_pair_uses_parameter_semantics(self):
        manager = ObjectManager(name="T", spec=TableType(), initial_state={})
        same_key = manager.classify_pair(
            Invocation("insert", ("k", "x")),
            Invocation("lookup", ("k",)),
            ConflictPolicy.RECOVERABILITY,
        )
        different_key = manager.classify_pair(
            Invocation("insert", ("k1", "x")),
            Invocation("lookup", ("k2",)),
            ConflictPolicy.RECOVERABILITY,
        )
        assert same_key is ConflictClass.RECOVERABLE
        assert different_key is ConflictClass.COMMUTATIVE


def random_table_type():
    """A type whose compatibility is one random ADT-model table."""
    table = random_compatibility_table(("op1", "op2", "op3", "op4"), 4, 8, RandomSource(5))
    operations = {op: OperationSpec(name=op, function=None) for op in table.operations}
    return FunctionalTypeSpecification("random", None, operations, compatibility=table)


class TestCompiledTables:
    @pytest.mark.parametrize("policy", list(ConflictPolicy))
    @pytest.mark.parametrize("make_spec", [PageType, random_table_type])
    def test_unqualified_tables_compile_to_one_array(self, make_spec, policy):
        spec = make_spec()
        manager = ObjectManager(name="X", spec=spec, initial_state=spec.initial_state())
        tables = manager._tables_for(policy)
        assert tables[0] is tables[1] is tables[2]
        assert None not in tables[0]

    def test_qualified_entries_keep_three_arrays(self):
        manager = ObjectManager(name="T", spec=TableType(), initial_state={})
        unconditional, same_param, diff_param = manager._tables_for(ConflictPolicy.RECOVERABILITY)
        assert same_param != diff_param
        assert None in unconditional

    @pytest.mark.parametrize("policy", list(ConflictPolicy))
    @pytest.mark.parametrize(
        "make_spec", [PageType, StackType, TableType, SetType, QueueType, random_table_type]
    )
    def test_classify_pair_agrees_with_the_spec(self, make_spec, policy):
        spec = make_spec()
        manager = ObjectManager(name="X", spec=spec, initial_state=spec.initial_state())
        compatibility = manager.compatibility
        for requested_op in compatibility.operations:
            for executed_op in compatibility.operations:
                for executed_args in ((1,), (2,)):  # same, then different parameter
                    requested = Invocation(requested_op, (1,))
                    executed = Invocation(executed_op, executed_args)
                    expected = effective_class(
                        policy, compatibility.classify(requested, executed, spec)
                    )
                    assert manager.classify_pair(requested, executed, policy) is expected


class TestBlockedQueue:
    def test_conflicting_requests_queued_ahead(self):
        manager = make_stack_manager()
        manager.enqueue_blocked(PendingRequest(transaction_id=1, invocation=Invocation("pop")))
        manager.enqueue_blocked(PendingRequest(transaction_id=2, invocation=Invocation("pop")))
        pop, policy = Invocation("pop"), ConflictPolicy.RECOVERABILITY
        assert manager.classify_request(pop, 3, policy, ahead=2) == ({1, 2}, set())
        assert manager.classify_request(pop, 3, policy, ahead=1) == ({1}, set())
        assert manager.classify_request(pop, 3, policy) == (set(), set())

    def test_queued_ahead_ignores_recoverable_pairs(self):
        manager = make_stack_manager()
        manager.enqueue_blocked(PendingRequest(transaction_id=1, invocation=Invocation("top")))
        # push is recoverable relative to the blocked top, so fairness does
        # not require the push to wait behind it.
        result = manager.classify_request(
            Invocation("push", (1,)), 3, ConflictPolicy.RECOVERABILITY, ahead=1
        )
        assert result == (set(), set())

    def test_queued_ahead_skips_own_requests(self):
        manager = make_stack_manager()
        manager.enqueue_blocked(PendingRequest(transaction_id=1, invocation=Invocation("pop")))
        result = manager.classify_request(Invocation("pop"), 1, ConflictPolicy.RECOVERABILITY, ahead=1)
        assert result == (set(), set())

    def test_remove_blocked_of(self):
        manager = make_stack_manager()
        for owner in (1, 2, 1, 3):
            manager.enqueue_blocked(
                PendingRequest(transaction_id=owner, invocation=Invocation("pop"))
            )
        removed = manager.remove_blocked_of(1)
        assert [p.transaction_id for p in removed] == [1, 1]
        assert [p.transaction_id for p in manager.blocked] == [2, 3]
        kept = manager.blocked
        assert manager.remove_blocked_of(9) == [] and manager.blocked is kept


class TestExecutionAndRemoval:
    def test_execute_updates_state_and_log(self):
        manager = make_stack_manager()
        event = manager.execute(Invocation("push", (4,)), transaction_id=1, sequence=1)
        assert event.value == "ok"
        assert manager.current_state == (4,)
        assert manager.committed_state == ()
        assert manager.live_transactions() == {1}

    def test_commit_folds_operations_into_committed_state(self):
        manager = make_stack_manager()
        manager.execute(Invocation("push", (4,)), 1, 1)
        manager.execute(Invocation("push", (2,)), 2, 2)
        manager.remove_transaction(1, commit=True)
        assert manager.committed_state == (4,)
        assert manager.current_state == (4, 2)
        assert manager.live_transactions() == {2}

    def test_abort_replays_survivors_over_committed_state(self):
        manager = make_stack_manager()
        manager.execute(Invocation("push", (4,)), 1, 1)
        manager.execute(Invocation("push", (2,)), 2, 2)
        removed = manager.remove_transaction(1, commit=False)
        assert [e.invocation.op for e in removed] == ["push"]
        assert manager.committed_state == ()
        assert manager.current_state == (2,)

    def test_remove_unknown_transaction_is_noop(self):
        manager = make_stack_manager()
        assert manager.remove_transaction(42, commit=True) == []

    def test_commit_respecting_dependency_order_matches_direct_execution(self):
        manager = make_stack_manager()
        manager.execute(Invocation("push", (4,)), 1, 1)
        manager.execute(Invocation("push", (2,)), 2, 2)
        manager.remove_transaction(1, commit=True)
        manager.remove_transaction(2, commit=True)
        assert manager.committed_state == (4, 2)

    def test_events_of(self):
        manager = make_stack_manager()
        manager.execute(Invocation("push", (4,)), 1, 1)
        manager.execute(Invocation("push", (2,)), 2, 2)
        assert [e.invocation.args for e in manager.events_of(1)] == [(4,)]

    def test_unmaterialized_manager_skips_state(self):
        manager = ObjectManager(
            name="A", spec=StackType(), initial_state=(), materialize_state=False
        )
        event = manager.execute(Invocation("push", (4,)), 1, 1)
        assert event.value is None
        assert manager.current_state == ()
        manager.remove_transaction(1, commit=True)
        assert manager.committed_state == ()

    def test_initial_state_override(self):
        manager = ObjectManager(name="S", spec=StackType(), initial_state=(9,))
        assert manager.current_state == (9,)
        assert manager.committed_state == (9,)


def make_counting_manager():
    """A stack-of-pushes manager whose operation function counts its calls."""
    calls = []

    def push(state, args):
        calls.append(args)
        return OperationResult(state=state + args, value="ok")

    table = RelationTable("pushes", ("push",), {("push", "push"): Answer.NO})
    spec = FunctionalTypeSpecification(
        name="counting",
        initial_state=(),
        operations={"push": OperationSpec(name="push", function=push)},
        compatibility=CompatibilitySpec("counting", commutativity=table, recoverability=table),
    )
    return ObjectManager(name="C", spec=spec, initial_state=()), calls


class TestRemovalCost:
    """What a removal may re-apply: nothing when the log was the
    transaction's own, exactly the survivors when it was shared."""

    def test_sole_owner_commit_applies_no_operation(self):
        manager, calls = make_counting_manager()
        manager.execute(Invocation("push", (4,)), 1, 1)
        manager.execute(Invocation("push", (2,)), 1, 2)
        del calls[:]
        removed = manager.remove_transaction(1, commit=True)
        assert calls == []
        assert [e.invocation.args for e in removed] == [(4,), (2,)]
        assert manager.committed_state == manager.current_state == (4, 2)
        assert manager.uncommitted == []
        assert manager._op_groups == {} and manager._events_by_tid == {}

    def test_sole_owner_abort_applies_no_operation(self):
        manager, calls = make_counting_manager()
        manager.execute(Invocation("push", (4,)), 1, 1)
        manager.remove_transaction(1, commit=True)
        manager.execute(Invocation("push", (2,)), 2, 2)
        del calls[:]
        manager.remove_transaction(2, commit=False)
        assert calls == []
        assert manager.committed_state == manager.current_state == (4,)
        assert manager.uncommitted == []
        assert manager._op_groups == {} and manager._events_by_tid == {}

    def test_shared_abort_replays_exactly_the_survivors(self):
        manager, calls = make_counting_manager()
        manager.execute(Invocation("push", (4,)), 1, 1)
        manager.execute(Invocation("push", (2,)), 2, 2)
        manager.execute(Invocation("push", (6,)), 3, 3)
        del calls[:]
        manager.remove_transaction(2, commit=False)
        assert calls == [(4,), (6,)]
        assert manager.current_state == (4, 6)
        assert manager.live_transactions() == {1, 3}

    def test_log_is_rebound_not_cleared_in_place(self):
        # ``uncommitted`` is derived afresh on every read, so a caller
        # iterating it across a termination keeps its snapshot.
        for others in (0, 1):
            manager, _ = make_counting_manager()
            manager.execute(Invocation("push", (4,)), 1, 1)
            if others:
                manager.execute(Invocation("push", (2,)), 2, 2)
            log = manager.uncommitted
            snapshot = list(log)
            manager.remove_transaction(1, commit=True)
            assert manager.uncommitted is not log
            assert log == snapshot


def make_counting_page(manager_class=ObjectManager, spec_class=FunctionalTypeSpecification):
    """A page whose operations record each application; ``bad`` returns a bare tuple."""
    calls = []

    def read(state, args):
        calls.append("read")
        return OperationResult(state, state)

    def write(state, args):
        calls.append("write")
        return OperationResult(args[0], "ok")

    spec = spec_class(
        name="counting page",
        initial_state=3,
        operations={
            "read": OperationSpec(name="read", function=read, is_read_only=True),
            "write": OperationSpec(name="write", function=write),
            "bad": OperationSpec(name="bad", function=lambda state, args: (state, "ok")),
        },
        compatibility=PageType().compatibility(),
    )
    return manager_class(name="P", spec=spec, initial_state=3), calls


#: (transaction, invocation) scripts over transactions 1 (reads only) and 2.
_READ, _WRITE_5, _WRITE_6 = Invocation("read"), Invocation("write", (5,)), Invocation("write", (6,))
READER_SCRIPTS = {
    "prefix": [(1, _READ), (1, _READ), (2, _WRITE_5), (2, _READ)],
    "interleaved": [(2, _WRITE_5), (1, _READ), (2, _WRITE_6), (1, _READ), (2, _READ)],
}


class TestReadOnlyRemoval:
    """Removing a reader ends where the always-rebuild reference ends."""

    @pytest.mark.parametrize("commit", [True, False], ids=["commit", "abort"])
    @pytest.mark.parametrize("script", sorted(READER_SCRIPTS))
    def test_removing_a_reader_matches_the_rebuild(self, script, commit):
        manager, _ = make_counting_page()
        reference, _ = make_counting_page(RebuildingManager)
        for sequence, (transaction_id, invocation) in enumerate(READER_SCRIPTS[script], start=1):
            assert manager.execute(invocation, transaction_id, sequence) == reference.execute(
                invocation, transaction_id, sequence
            )
        assert manager.remove_transaction(1, commit) == reference.remove_transaction(1, commit)
        for removal in (None, True):  # then the surviving writer commits
            if removal is not None:
                manager.remove_transaction(2, commit=removal)
                reference.remove_transaction(2, commit=removal)
            assert manager.committed_state == reference.committed_state
            assert manager.current_state == reference.current_state
            assert manager.uncommitted == reference.uncommitted
            assert len(manager._op_groups) == len(reference._op_groups)
            assert all(manager._op_groups.values())

    def test_removing_a_writer_still_replays_the_surviving_reads(self):
        manager, calls = make_counting_page()
        manager.execute(_READ, 1, 1)
        manager.execute(_WRITE_5, 2, 2)
        manager.execute(_READ, 1, 3)
        del calls[:]
        manager.remove_transaction(2, commit=False)
        assert calls == ["read", "read"]
        assert manager.committed_state == manager.current_state == 3

    def test_a_spec_overriding_apply_replays_everything(self):
        applied = []

        class LoudSpec(FunctionalTypeSpecification):
            def apply(self, state, invocation):
                applied.append(invocation.op)
                return super().apply(state, invocation)

        manager, _ = make_counting_page(spec_class=LoudSpec)
        manager.execute(_READ, 1, 1)
        manager.execute(_WRITE_5, 2, 2)
        del applied[:]
        manager.remove_transaction(1, commit=True)
        assert applied == ["read", "write"]  # the removed read folded, the survivor refolded
        assert manager.committed_state == 3 and manager.current_state == 5


class TestExecutionErrors:
    """``spec.apply``'s errors reach ``Scheduler.submit``'s caller and change nothing."""

    @pytest.mark.parametrize("op, error", [("bad", SpecificationError), ("nope", UnknownOperationError)])
    def test_a_failed_operation_changes_nothing(self, op, error):
        scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
        manager = scheduler.register_object("P", make_counting_page()[0].spec)
        txn = scheduler.begin()
        scheduler.perform(txn.tid, "P", "write", 5)
        def snapshot():
            return (manager.uncommitted, manager.current_state, repr(manager._op_groups),
                    list(txn.events), scheduler.stats.operations_executed)
        before = snapshot()
        with pytest.raises(error):
            scheduler.submit(txn.tid, "P", Invocation(op))
        assert snapshot() == before
        assert scheduler.perform(txn.tid, "P", "read").value == 5
        scheduler.commit(txn.tid)
        assert manager.committed_state == 5


def make_narrow_page(default=Answer.NO, scheduler=None):
    """A page whose tables know only ``read``: ``write`` is outside them."""
    table = RelationTable("reads only", ("read",), {("read", "read"): Answer.YES}, default)
    compatibility = CompatibilitySpec("narrow page", commutativity=table, recoverability=table)
    if scheduler is not None:
        return scheduler.register_object("N", PageType(), compatibility=compatibility)
    return ObjectManager(name="N", spec=PageType(), initial_state=0, compatibility=compatibility)


#: kind -> (manager factory, invocation that lands in a fallback group).
FALLBACKS = {
    "unhashable-param": (lambda: ObjectManager(name="P", spec=PageType(), initial_state=0),
                         Invocation("write", ([7],))),
    "unknown-op": (make_narrow_page, Invocation("write", (5,))),
}


class TestDerivedLog:
    """``uncommitted`` is derived from the per-transaction events."""

    def test_uncommitted_is_in_sequence_order_across_transactions(self):
        manager = make_stack_manager()
        script = [(1, 4), (2, 5), (1, 6), (3, 7), (2, 8), (1, 9)]
        for sequence, (transaction_id, value) in enumerate(script, start=1):
            manager.execute(Invocation("push", (value,)), transaction_id, sequence)
        log = manager.uncommitted
        assert [(e.transaction_id, e.invocation.args[0]) for e in log] == script
        assert [e.sequence for e in log] == [1, 2, 3, 4, 5, 6]
        manager.remove_transaction(2, commit=False)
        assert [e.sequence for e in manager.uncommitted] == [1, 3, 4, 6]
        assert manager.current_state == (4, 6, 7, 9)
        manager.remove_transaction(1, commit=True)
        assert [e.sequence for e in manager.uncommitted] == [4]

    def test_uncommitted_cannot_be_assigned(self):
        manager = make_stack_manager()
        manager.execute(Invocation("push", (4,)), 1, 1)
        with pytest.raises(AttributeError):
            manager.uncommitted = []
        assert [e.invocation.args for e in manager.uncommitted] == [(4,)]


class TestFallbackGroups:
    """An unhashable parameter or an operation outside the tables gets a
    group per event, keyed by the event's id; the group goes with it."""

    @pytest.mark.parametrize("ending", ["commit", "abort", "discard_volatile"])
    @pytest.mark.parametrize("kind", sorted(FALLBACKS))
    def test_fallback_groups_leave_nothing_behind(self, kind, ending):
        make, invocation = FALLBACKS[kind]
        manager = make()
        assert manager._events_by_tid is manager._op_groups is _NO_LOG
        manager.execute(Invocation("read"), 1, 1)
        manager.execute(invocation, 2, 2)
        manager.execute(invocation, 3, 3)
        fallback = [key for key in manager._op_groups if key[0] < 0]
        assert len(fallback) == 2
        events = manager.events_of(2) + manager.events_of(3)
        assert sorted(key[1] for key in fallback) == sorted(id(event) for event in events)
        assert [manager._representative(key) for key in fallback] == [invocation, invocation]
        # Classification still sees every fallback operation.
        policy = ConflictPolicy.RECOVERABILITY
        assert manager.classify_request(Invocation("read"), 1, policy) == ({2, 3}, set())
        if ending == "discard_volatile":
            manager.discard_volatile()
        else:
            manager.remove_transaction(2, commit=ending == "commit")
            assert [key[1] for key in manager._op_groups if key[0] < 0] == [
                id(manager.events_of(3)[0])
            ]
            manager.remove_transaction(3, commit=ending == "commit")
            # Shared removals: only the reader's group is left.
            assert list(manager._op_groups) == [(0, ())]
            assert manager.live_transactions() == {1}
            manager.remove_transaction(1, commit=ending == "commit")
        # An emptied log is the idle copies' shared one, which stays empty,
        # and the next event allocates the copy a log of its own again.
        assert manager._events_by_tid is manager._op_groups is _NO_LOG
        assert manager.uncommitted == [] and _NO_LOG == {}
        assert manager.classify_request(Invocation("read"), 1, policy) == (set(), set())
        assert manager.remove_transaction(1, commit=True) == []
        event = manager.execute(invocation, 4, 4)
        assert manager._events_by_tid is not _NO_LOG and manager._op_groups is not _NO_LOG
        assert manager.events_of(4) == [event] and manager.live_transactions() == {4}
        assert manager.classify_request(Invocation("read"), 1, policy) == ({4}, set())

    @pytest.mark.parametrize("kind", sorted(FALLBACKS))
    def test_kernel_fallback_group_goes_with_its_transaction(self, kind):
        # The same fallback groups, reached through ``Scheduler.submit``.
        _, invocation = FALLBACKS[kind]
        scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
        if kind == "unknown-op":
            manager = make_narrow_page(default=Answer.YES, scheduler=scheduler)
        else:
            manager = scheduler.register_object("P", PageType())
        reader, writer = scheduler.begin(), scheduler.begin()
        assert scheduler.perform(reader.tid, manager.name, "read").executed
        assert scheduler.perform(writer.tid, manager.name, "write", *invocation.args).executed
        (key,) = [key for key in manager._op_groups if key[0] < 0]
        assert manager._op_groups[key] == {writer.tid: 1}
        assert key[1] == id(manager.events_of(writer.tid)[0])
        assert manager._representative(key) == invocation
        scheduler.abort(writer.tid)
        assert list(manager._op_groups) == [(0, ())]
        assert manager.live_transactions() == {reader.tid}

    @pytest.mark.parametrize("kind", sorted(FALLBACKS))
    def test_a_scheduler_crash_drops_fallback_groups_and_blocked_requests(self, kind):
        # A site crash reaches the groups through ``Scheduler.discard_volatile``.
        _, invocation = FALLBACKS[kind]
        scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
        if kind == "unknown-op":  # writes conflict: the second one waits
            manager = make_narrow_page(scheduler=scheduler)
        else:
            manager = scheduler.register_object("P", PageType())
        reader, first, second = scheduler.begin(), scheduler.begin(), scheduler.begin()
        assert scheduler.perform(reader.tid, manager.name, "read").executed
        scheduler.perform(first.tid, manager.name, "write", *invocation.args)
        waiting = scheduler.perform(second.tid, manager.name, "write", *invocation.args)
        assert scheduler.commit(reader.tid) is TransactionStatus.COMMITTED
        assert waiting.blocked == (kind == "unknown-op") == bool(manager.blocked)
        assert [key for key in manager._op_groups if key[0] < 0]
        scheduler.discard_volatile()
        assert manager._events_by_tid is manager._op_groups is _NO_LOG
        assert not manager.blocked and manager.current_state == manager.committed_state == 0
        after = scheduler.begin()
        assert scheduler.perform(after.tid, manager.name, "write", *invocation.args).executed
        assert scheduler.commit(after.tid) is TransactionStatus.COMMITTED
        assert manager._events_by_tid is manager._op_groups is _NO_LOG
        assert manager.committed_state == invocation.args[0]


#: Bytes that building the ``ac4-persite`` system may allocate per object
#: copy (4 sites x 1000 pages).  Measured 306-308 B on CPython 3.11-3.13
#: with idle copies holding the shared empty log; 450-452 B when every copy
#: allocated two empty log dicts.
BYTES_PER_COPY = 360


def test_building_copies_allocates_no_log_per_copy():
    params = SimulationParameters(
        seed=1, write_probability=0.1, site_count=4, replication="copies",
        resource_units=1, resource_placement="per_site", msg_time=0.001, mpl_level=50,
    )
    Simulation(params)  # imports, interned tables, compiled policy
    gc.collect()
    gc.disable()  # the count must not net out a collection of earlier garbage
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        simulation = Simulation(params)
        built = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    managers = [m for site in simulation.router.sites for m in site.scheduler.objects.values()]
    assert len(managers) == 4000
    assert all(m._events_by_tid is m._op_groups is _NO_LOG for m in managers)
    assert built / len(managers) <= BYTES_PER_COPY


def test_one_adt_batch_decides_the_initial_state_once(monkeypatch):
    # The registration decides the default state; each copy takes it as given.
    calls = []
    initial_state = FunctionalTypeSpecification.initial_state

    def counting(spec):
        calls.append(spec.name)
        return initial_state(spec)

    monkeypatch.setattr(FunctionalTypeSpecification, "initial_state", counting)
    simulation = Simulation(SimulationParameters(seed=1, database_size=300), "adt")
    assert len(simulation.router.scheduler.objects) == 300
    assert calls == ["adt-object"]
