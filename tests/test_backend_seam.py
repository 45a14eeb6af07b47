"""The backend seam: a backend is its relation (``decide``) plus its commit rule.

The scheduler asks for a request's relation once — on a first submit and on
every queue retry, including the one that grants — and owns all that follows.
So a queue grant costs one ``decide``, a subclass overriding ``decide`` is
obeyed, and a backend of nothing but ``decide`` and ``commit`` runs seeded
simulations with complete wait-for sets and deadlock victims.
"""

import pytest
from stepping import CheckedSimulation, find_cycle

from repro.adts import PageType
from repro.core.backends import ConcurrencyControlBackend, SemanticBackend, TwoPhaseLockingBackend
from repro.core.policy import ConflictPolicy
from repro.core.requests import AbortReason
from repro.core.scheduler import Scheduler
from repro.core.transaction import TransactionStatus
from repro.sim.params import SimulationParameters


class ExclusiveBackend(ConcurrencyControlBackend):
    """Any uncommitted operation of another transaction conflicts."""

    name = "exclusive"

    def decide(self, manager, invocation, transaction_id, ahead):
        return manager.live_transactions() - {transaction_id}, frozenset()

    def commit(self, transaction):
        self.scheduler.finalize_commit(transaction)
        return TransactionStatus.COMMITTED


def check_exclusive(scheduler):
    for manager in scheduler.objects.values():
        assert len(manager.live_transactions()) <= 1, manager
    for transaction in scheduler.transactions.values():
        waiting_for = scheduler.waiting_for(transaction.tid)
        if transaction.status is not TransactionStatus.BLOCKED:
            assert waiting_for == set(), transaction
            continue
        (name,) = transaction.blocked_at
        manager = scheduler.objects[name]
        (request,) = [p for p in manager.blocked if p.transaction_id == transaction.tid]
        conflicting, _ = scheduler.backend.decide(manager, request.invocation, transaction.tid, 0)
        assert waiting_for == conflicting != set(), (transaction, name)
    assert find_cycle([(edge.source, edge.target) for edge in scheduler.graph.edges()]) is None


class ExclusiveSimulation(CheckedSimulation):
    check = staticmethod(check_exclusive)


@pytest.mark.parametrize("backend_class,policy", [
    (SemanticBackend, ConflictPolicy.COMMUTATIVITY),
    (TwoPhaseLockingBackend, ConflictPolicy.TWO_PHASE_LOCKING),
], ids=["semantic", "two-phase-locking"])
def test_a_queue_grant_costs_one_decision(backend_class, policy):
    class Counting(backend_class):
        decisions = 0

        def decide(self, manager, invocation, transaction_id, ahead):
            self.decisions += 1
            return super().decide(manager, invocation, transaction_id, ahead)

    backend = Counting()
    scheduler = Scheduler(policy=policy, backend=backend)
    scheduler.register_object("x", PageType())
    t1, t2 = scheduler.begin(), scheduler.begin()
    assert scheduler.perform(t1.tid, "x", "write", 1).executed
    queued = scheduler.perform(t2.tid, "x", "write", 2)
    assert queued.blocked and backend.decisions == 2
    scheduler.commit(t1.tid)
    assert queued.executed and backend.decisions == 3


def test_a_subclass_that_overrides_decide_is_obeyed():
    class Permissive(SemanticBackend):
        def decide(self, manager, invocation, transaction_id, ahead):
            return set(), set()

    scheduler = Scheduler(policy=ConflictPolicy.COMMUTATIVITY, backend=Permissive())
    scheduler.register_object("x", PageType())
    t1, t2 = scheduler.begin(), scheduler.begin()
    assert scheduler.perform(t1.tid, "x", "write", 1).executed
    assert scheduler.perform(t2.tid, "x", "write", 2).executed  # the stock relation blocks it


def test_a_backend_of_decide_and_commit_blocks_grants_and_picks_deadlock_victims():
    scheduler = Scheduler(backend=ExclusiveBackend())
    for name in ("x", "y"):
        scheduler.register_object(name, PageType())
    t1, t2, t3 = scheduler.begin(), scheduler.begin(), scheduler.begin()
    assert scheduler.perform(t1.tid, "x", "read").executed
    assert scheduler.perform(t2.tid, "y", "read").executed
    waiting = scheduler.perform(t3.tid, "x", "read")  # even a read behind a read
    assert waiting.blocked and scheduler.waiting_for(t3.tid) == {t1.tid}
    crossing = scheduler.perform(t1.tid, "y", "write", 1)
    assert crossing.blocked
    check_exclusive(scheduler)
    victim = scheduler.perform(t2.tid, "x", "write", 2)  # would close T2 -> T1 -> T2
    assert victim.aborted and victim.abort_reason is AbortReason.DEADLOCK
    assert crossing.executed and waiting.blocked
    check_exclusive(scheduler)
    assert scheduler.commit(t1.tid) is TransactionStatus.COMMITTED
    assert waiting.executed and scheduler.committed_state("y") == 1
    check_exclusive(scheduler)


@pytest.mark.parametrize("seed", [1, 7, 13])
def test_a_backend_of_decide_and_commit_runs_a_checked_simulation(seed):
    params = SimulationParameters(seed=seed, database_size=30, mpl_level=12, total_completions=300)
    simulation = ExclusiveSimulation(params, workload_kind="readwrite", backend=ExclusiveBackend())
    counters = simulation.run().counters()
    assert simulation.checks >= counters["events_processed"]
    assert counters["completions"] >= 300 and counters["pseudo_commits"] == 0
    assert counters["blocks"] > 50 and counters["aborts"] > 0
