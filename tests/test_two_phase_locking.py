"""Tests for the strict two-phase-locking backend.

The 2PL backend is the classical page-level baseline the paper measures its
recoverability protocol against: shared locks for read-only operations,
exclusive locks for everything else, all held until the owner terminates,
FIFO waiting, and deadlock detection through the scheduler's shared wait-for
graph.
"""

import dataclasses

import pytest

from repro.adts import PageType, SetType, StackType
from repro.core.backends import (
    LockMode,
    SemanticBackend,
    TwoPhaseLockingBackend,
    make_backend,
)
from repro.core.errors import UnknownOperationError
from repro.core.history import ExecutionLog
from repro.core.policy import ConflictPolicy
from repro.core.scheduler import AbortReason, Scheduler
from repro.core.serializability import ObjectUniverse, is_log_sound, is_serializable
from repro.core.specification import Invocation
from repro.core.transaction import TransactionStatus
from repro.sim.params import SimulationParameters
from repro.sim.simulator import Simulation, run_simulation


def locking_scheduler(*objects):
    scheduler = Scheduler(policy=ConflictPolicy.TWO_PHASE_LOCKING)
    for name, spec in objects:
        scheduler.register_object(name, spec)
    return scheduler


class TestBackendSelection:
    def test_policy_selects_the_locking_backend(self):
        scheduler = Scheduler(policy=ConflictPolicy.TWO_PHASE_LOCKING)
        assert isinstance(scheduler.backend, TwoPhaseLockingBackend)

    def test_semantic_policies_select_the_semantic_backend(self):
        for policy in (ConflictPolicy.COMMUTATIVITY, ConflictPolicy.RECOVERABILITY):
            assert isinstance(make_backend(policy), SemanticBackend)

    def test_explicit_backend_instance_overrides_the_policy(self):
        backend = TwoPhaseLockingBackend()
        scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY, backend=backend)
        assert scheduler.backend is backend
        assert backend.scheduler is scheduler

    def test_backend_instances_cannot_be_shared_between_schedulers(self):
        """Backends carry per-run state (the lock table); sharing one across
        schedulers would leak phantom locks into the next run."""
        from repro.core.errors import ReproError

        backend = TwoPhaseLockingBackend()
        Scheduler(backend=backend)
        with pytest.raises(ReproError):
            Scheduler(backend=backend)

    def test_lock_modes_follow_read_only_flags(self):
        scheduler = locking_scheduler(("S", StackType()))
        backend = scheduler.backend
        manager = scheduler.object("S")
        assert backend.required_mode(manager, Invocation("top")) is LockMode.SHARED
        assert backend.required_mode(manager, Invocation("push", (1,))) is LockMode.EXCLUSIVE
        assert backend.required_mode(manager, Invocation("pop")) is LockMode.EXCLUSIVE


class TestLockConflictBlocking:
    def test_shared_locks_are_compatible(self):
        scheduler = locking_scheduler(("P", PageType()))
        t1, t2 = scheduler.begin(), scheduler.begin()
        assert scheduler.perform(t1.tid, "P", "read").executed
        assert scheduler.perform(t2.tid, "P", "read").executed

    def test_writer_blocks_behind_readers(self):
        scheduler = locking_scheduler(("P", PageType()))
        t1, t2 = scheduler.begin(), scheduler.begin()
        assert scheduler.perform(t1.tid, "P", "read").executed
        handle = scheduler.perform(t2.tid, "P", "write", 7)
        assert handle.blocked
        assert scheduler.waiting_for(t2.tid) == {t1.tid}

    def test_reader_blocks_behind_writer(self):
        scheduler = locking_scheduler(("P", PageType()))
        t1, t2 = scheduler.begin(), scheduler.begin()
        assert scheduler.perform(t1.tid, "P", "write", 7).executed
        assert scheduler.perform(t2.tid, "P", "read").blocked

    def test_recoverable_pair_blocks_under_2pl_but_not_recoverability(self):
        """write/write is recoverable for pages — 2PL blocks it anyway."""
        locking = locking_scheduler(("P", PageType()))
        t1, t2 = locking.begin(), locking.begin()
        assert locking.perform(t1.tid, "P", "write", 1).executed
        assert locking.perform(t2.tid, "P", "write", 2).blocked

        semantic = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
        semantic.register_object("P", PageType())
        t1, t2 = semantic.begin(), semantic.begin()
        assert semantic.perform(t1.tid, "P", "write", 1).executed
        assert semantic.perform(t2.tid, "P", "write", 2).executed

    def test_locks_are_strict_released_only_at_commit(self):
        scheduler = locking_scheduler(("P", PageType()))
        t1, t2 = scheduler.begin(), scheduler.begin()
        assert scheduler.perform(t1.tid, "P", "write", 3).executed
        handle = scheduler.perform(t2.tid, "P", "read")
        assert handle.blocked
        scheduler.commit(t1.tid)
        assert handle.executed
        assert handle.value == 3

    def test_abort_releases_locks_and_grants_waiters(self):
        scheduler = locking_scheduler(("P", PageType()))
        t1, t2 = scheduler.begin(), scheduler.begin()
        assert scheduler.perform(t1.tid, "P", "write", 3).executed
        handle = scheduler.perform(t2.tid, "P", "read")
        scheduler.abort(t1.tid)
        assert handle.executed
        assert handle.value == 0  # the aborted write was undone

    def test_same_transaction_reacquires_and_upgrades_freely(self):
        scheduler = locking_scheduler(("P", PageType()))
        t1 = scheduler.begin()
        assert scheduler.perform(t1.tid, "P", "read").executed
        assert scheduler.perform(t1.tid, "P", "write", 9).executed
        assert scheduler.perform(t1.tid, "P", "read").value == 9
        assert scheduler.commit(t1.tid) is TransactionStatus.COMMITTED

    def test_fifo_fairness_reader_does_not_overtake_queued_writer(self):
        scheduler = locking_scheduler(("P", PageType()))
        t1, t2, t3 = scheduler.begin(), scheduler.begin(), scheduler.begin()
        assert scheduler.perform(t1.tid, "P", "read").executed
        assert scheduler.perform(t2.tid, "P", "write", 1).blocked
        # A fair scheduler queues the reader behind the blocked writer.
        assert scheduler.perform(t3.tid, "P", "read").blocked


class TestDeadlockDetection:
    def test_cross_object_deadlock_aborts_the_closing_requester(self):
        scheduler = locking_scheduler(("A", PageType()), ("B", PageType()))
        t1, t2 = scheduler.begin(), scheduler.begin()
        assert scheduler.perform(t1.tid, "A", "write", 1).executed
        assert scheduler.perform(t2.tid, "B", "write", 2).executed
        assert scheduler.perform(t1.tid, "B", "write", 3).blocked
        handle = scheduler.perform(t2.tid, "A", "write", 4)
        assert handle.aborted
        assert handle.abort_reason is AbortReason.DEADLOCK
        assert scheduler.transaction(t2.tid).status is TransactionStatus.ABORTED
        # The victim's locks were released, so T1's queued write went through.
        assert scheduler.transaction(t1.tid).status is TransactionStatus.ACTIVE
        assert scheduler.object_state("B") == 3

    def test_upgrade_deadlock_is_detected(self):
        scheduler = locking_scheduler(("P", PageType()))
        t1, t2 = scheduler.begin(), scheduler.begin()
        assert scheduler.perform(t1.tid, "P", "read").executed
        assert scheduler.perform(t2.tid, "P", "read").executed
        assert scheduler.perform(t1.tid, "P", "write", 1).blocked
        handle = scheduler.perform(t2.tid, "P", "write", 2)
        assert handle.aborted and handle.abort_reason is AbortReason.DEADLOCK
        # T1's upgrade is granted once the victim's shared lock is gone.
        assert scheduler.transaction(t1.tid).status is TransactionStatus.ACTIVE
        assert scheduler.object_state("P") == 1
        assert scheduler.stats.deadlock_aborts == 1


class TestCommitProtocol:
    def test_commit_is_always_immediate_no_pseudo_commit(self):
        scheduler = locking_scheduler(("P", PageType()))
        t1 = scheduler.begin()
        scheduler.perform(t1.tid, "P", "write", 5)
        assert scheduler.commit(t1.tid) is TransactionStatus.COMMITTED
        assert scheduler.stats.pseudo_commits == 0
        assert scheduler.committed_state("P") == 5

    def test_no_commit_dependency_edges_are_ever_created(self):
        scheduler = locking_scheduler(("P", PageType()))
        transactions = [scheduler.begin() for _ in range(4)]
        for index, transaction in enumerate(transactions):
            scheduler.perform(transaction.tid, "P", "write", index)
            scheduler.commit(transaction.tid)
        assert scheduler.stats.commit_dependency_edges == 0
        assert scheduler.stats.commits == 4


class AliasingPage(PageType):
    """Answers ``peek`` — a read absent from ``operations()`` — and reports
    ``read`` as a mutator, both through an overridden ``operation``."""

    def operation(self, op_name):
        if op_name == "peek":
            return dataclasses.replace(super().operation("read"), name="peek")
        if op_name == "read":
            return dataclasses.replace(super().operation("read"), is_read_only=False)
        return super().operation(op_name)


class TestLockTable:
    def test_an_operation_outside_the_spec_takes_an_exclusive_lock(self):
        scheduler = locking_scheduler(("P", PageType()))
        backend = scheduler.backend
        bogus = Invocation("bogus")
        assert backend.required_mode(scheduler.object("P"), bogus) is LockMode.EXCLUSIVE
        t1, t2 = scheduler.begin(), scheduler.begin()
        with pytest.raises(UnknownOperationError):
            scheduler.submit(t1.tid, "P", bogus)
        # The lock was granted before the operation raised, and is released
        # with its owner although the owner never visited the object.
        assert backend.holders("P") == {t1.tid: LockMode.EXCLUSIVE}
        waiting = scheduler.perform(t2.tid, "P", "read")
        assert waiting.blocked
        scheduler.abort(t1.tid)
        assert waiting.executed
        assert backend.holders("P") == {t2.tid: LockMode.SHARED}

    def test_a_spec_that_overrides_operation_gets_the_modes_it_reports(self):
        scheduler = locking_scheduler(("P", AliasingPage()))
        backend, manager = scheduler.backend, scheduler.object("P")
        assert backend.required_mode(manager, Invocation("peek")) is LockMode.SHARED
        assert backend.required_mode(manager, Invocation("read")) is LockMode.EXCLUSIVE
        t1, t2, t3 = scheduler.begin(), scheduler.begin(), scheduler.begin()
        assert scheduler.perform(t1.tid, "P", "peek").executed
        assert scheduler.perform(t2.tid, "P", "peek").value == 0
        assert backend.holders("P") == {t1.tid: LockMode.SHARED, t2.tid: LockMode.SHARED}
        assert scheduler.perform(t3.tid, "P", "read").blocked

    def test_a_covered_request_and_an_upgrade_leave_one_entry_to_release(self):
        scheduler = locking_scheduler(("P", PageType()), ("Q", PageType()))
        backend = scheduler.backend
        t1 = scheduler.begin()
        steps = (("read", ()), ("read", ()), ("write", (4,)), ("read", ()), ("write", (5,)))
        for op, args in steps:
            assert scheduler.perform(t1.tid, "P", op, *args).executed
        assert backend.holders("P") == {t1.tid: LockMode.EXCLUSIVE}
        assert backend.holders("Q") == {} == backend.holders("never-registered")
        assert scheduler.commit(t1.tid) is TransactionStatus.COMMITTED
        assert backend.holders("P") == {}

    @pytest.mark.parametrize("forget", ["reset", "discard_volatile"])
    def test_reset_empties_the_lock_table(self, forget):
        scheduler = locking_scheduler(("P", PageType()))
        stale = scheduler.begin()
        assert scheduler.perform(stale.tid, "P", "write", 3).executed
        assert scheduler.perform(scheduler.begin().tid, "P", "read").blocked
        getattr(scheduler, forget)()
        assert scheduler.backend.holders("P") == {}
        fresh = scheduler.begin()
        assert fresh.tid == stale.tid
        assert scheduler.perform(fresh.tid, "P", "write", 4).executed
        assert scheduler.backend.holders("P") == {fresh.tid: LockMode.EXCLUSIVE}
        assert scheduler.commit(fresh.tid) is TransactionStatus.COMMITTED
        assert scheduler.backend.holders("P") == {}

    def test_simulation_reset_drops_the_locks_the_last_run_left_held(self):
        params = SimulationParameters(
            policy=ConflictPolicy.TWO_PHASE_LOCKING, seed=3, database_size=30,
            mpl_level=12, total_completions=100,
        )
        fresh = run_simulation(params, workload_kind="readwrite").counters()
        simulation = Simulation(params, workload_kind="readwrite")
        assert simulation.run().counters() == fresh
        backend = simulation.router.scheduler.backend
        names = list(simulation.router.scheduler.objects)
        # The run stops at its last completion with transactions in flight.
        assert any(backend.holders(name) for name in names)
        simulation.reset(params)
        assert not any(backend.holders(name) for name in names)
        assert simulation.run().counters() == fresh


# ----------------------------------------------------------------------
# Backend equivalence on the paper's worked sequences (Section 3.2)
# ----------------------------------------------------------------------
PAPER_SEQUENCES = {
    "sequence-1": (
        (("X", SetType()),),
        [
            (1, "X", Invocation("insert", (3,))),
            (2, "X", Invocation("member", (3,))),
            (1, "X", Invocation("insert", (7,))),
            (2, "X", Invocation("delete", (3,))),
        ],
    ),
    "sequence-2": (
        (("X", SetType()), ("Y", SetType())),
        [
            (2, "X", Invocation("member", (3,))),
            (1, "X", Invocation("insert", (3,))),
            (1, "Y", Invocation("insert", (4,))),
            (2, "Y", Invocation("delete", (5,))),
        ],
    ),
    "sequence-3": (
        (("S", StackType()), ("X", SetType())),
        [
            (1, "S", Invocation("push", (4,))),
            (1, "X", Invocation("member", (3,))),
            (2, "S", Invocation("push", (2,))),
            (2, "X", Invocation("insert", (3,))),
        ],
    ),
}


def drive_sequence(policy, objects, steps):
    """Drive one logical script through a scheduler, simulator-style.

    Each transaction executes its steps in script order; a step whose request
    blocks is parked (the scheduler owns it) and the transaction's remaining
    steps wait until the grant re-activates it.  Once a transaction has run
    all its steps it commits; commits release conflicts and cascade grants.
    Returns the scheduler (all transactions terminated) and the execution
    log subscribed to it.
    """
    scheduler = Scheduler(policy=policy)
    log = ExecutionLog()
    scheduler.add_listener(log)
    for name, spec in objects:
        scheduler.register_object(name, spec)
    ids: dict = {}
    pending: dict = {}
    for label, object_name, invocation in steps:
        if label not in ids:
            ids[label] = scheduler.begin().tid
            pending[label] = []
        pending[label].append((object_name, invocation))

    def pump(label):
        """Issue a transaction's next steps while it stays ACTIVE."""
        transaction = scheduler.transaction(ids[label])
        while pending[label] and transaction.status is TransactionStatus.ACTIVE:
            object_name, invocation = pending[label].pop(0)
            scheduler.submit(ids[label], object_name, invocation)

    # First pass in script order preserves the paper's interleaving.
    for label, object_name, invocation in steps:
        transaction = scheduler.transaction(ids[label])
        if transaction.status is TransactionStatus.ACTIVE and pending[label] and (
            pending[label][0] == (object_name, invocation)
        ):
            pending[label].pop(0)
            scheduler.submit(ids[label], object_name, invocation)

    # Commit/grant rounds until everything terminated.
    for _ in range(3 * len(ids) + 3):
        for label, tid in ids.items():
            pump(label)
            transaction = scheduler.transaction(tid)
            if transaction.status is TransactionStatus.ACTIVE and not pending[label]:
                scheduler.commit(tid)
        if all(
            scheduler.transaction(tid).status.is_terminated for tid in ids.values()
        ):
            break
    return scheduler, log


class TestBackendEquivalenceOnPaperSequences:
    @pytest.mark.parametrize("sequence_id", sorted(PAPER_SEQUENCES))
    @pytest.mark.parametrize(
        "policy",
        [ConflictPolicy.RECOVERABILITY, ConflictPolicy.TWO_PHASE_LOCKING],
        ids=lambda p: p.value,
    )
    def test_histories_are_sound_and_serializable(self, sequence_id, policy):
        objects, steps = PAPER_SEQUENCES[sequence_id]
        scheduler, log = drive_sequence(policy, objects, steps)
        for tid in list(scheduler.transactions):
            assert scheduler.transaction(tid).status is TransactionStatus.COMMITTED
        universe = ObjectUniverse(specs=dict(objects))
        assert is_log_sound(log, universe)
        assert is_serializable(log, universe)

    @pytest.mark.parametrize("sequence_id", sorted(PAPER_SEQUENCES))
    def test_both_backends_reach_the_same_committed_state(self, sequence_id):
        objects, steps = PAPER_SEQUENCES[sequence_id]
        states = {}
        for policy in (ConflictPolicy.RECOVERABILITY, ConflictPolicy.TWO_PHASE_LOCKING):
            scheduler, _ = drive_sequence(policy, objects, steps)
            states[policy] = {
                name: scheduler.committed_state(name) for name, _ in objects
            }
        assert states[ConflictPolicy.RECOVERABILITY] == states[ConflictPolicy.TWO_PHASE_LOCKING]


# ----------------------------------------------------------------------
# End-to-end: the Figure 4 workload under both backends
# ----------------------------------------------------------------------
class TestFigure4WorkloadOrdering:
    def test_2pl_completes_no_more_work_than_recoverability(self):
        """The paper's qualitative ordering, at unit-test scale: under data
        contention the strict-2PL baseline's throughput must not exceed the
        recoverability protocol's."""
        base = dict(
            database_size=40, num_terminals=60, mpl_level=30, total_completions=150, seed=5
        )
        locking = run_simulation(
            SimulationParameters(policy=ConflictPolicy.TWO_PHASE_LOCKING, **base), "readwrite"
        )
        recoverability = run_simulation(
            SimulationParameters(policy=ConflictPolicy.RECOVERABILITY, **base), "readwrite"
        )
        assert locking.throughput <= recoverability.throughput
        assert locking.pseudo_commits == 0
        assert recoverability.pseudo_commits > 0

    def test_2pl_tracks_the_commutativity_baseline_on_the_readwrite_model(self):
        """Page-level S/X locking encodes the same pairwise conflicts as the
        commutativity tables for pages, so the two baselines should track
        each other closely.  They are not identical: a lock holder re-enters
        and upgrades its own lock freely, while the semantic baseline makes a
        repeat request queue behind fair waiters."""
        base = dict(database_size=60, mpl_level=20, total_completions=120, seed=9)
        locking = run_simulation(
            SimulationParameters(policy=ConflictPolicy.TWO_PHASE_LOCKING, **base), "readwrite"
        )
        commutativity = run_simulation(
            SimulationParameters(policy=ConflictPolicy.COMMUTATIVITY, **base), "readwrite"
        )
        assert locking.throughput == pytest.approx(commutativity.throughput, rel=0.15)

    def test_adt_workload_runs_under_2pl(self):
        params = SimulationParameters(
            database_size=60,
            num_terminals=30,
            mpl_level=10,
            total_completions=60,
            policy=ConflictPolicy.TWO_PHASE_LOCKING,
            seed=11,
        )
        metrics = run_simulation(params, "adt")
        assert metrics.completions >= params.total_completions
        assert metrics.pseudo_commits == 0
