"""The concurrency-control scheduler (Sections 4.2-4.3).

The :class:`Scheduler` is the public entry point of the library.  It owns one
:class:`~repro.core.object_manager.ObjectManager` per registered object, the
unified :class:`~repro.core.dependency_graph.DependencyGraph`, and the
transaction table — the machinery *every* concurrency-control protocol needs —
and runs the operation-admission algorithm of Figure 2 for every request,
first submit (:meth:`Scheduler.submit`) and queue retry
(:meth:`Scheduler.retry_blocked`) alike: ask the pluggable
:class:`~repro.core.backends.ConcurrencyControlBackend` once which
transactions the request conflicts with and which it is recoverable over
(``decide``), then block it behind the former (wait-for edges, deadlock
check, *fair scheduling* of Section 5.2), or take commit dependencies on the
latter and execute it (:meth:`Scheduler.execute_operation`), or abort its
transaction when either edge set would close a cycle.  The backend also owns
the commit rule (commit now or pseudo-commit) and any protocol state:

* the default :class:`~repro.core.backends.SemanticBackend` implements the
  paper's recoverability/commutativity protocol: the compatibility-table
  relation, and the commit protocol of Section 4.3 with pseudo-commit and
  cascaded durable commits;
* :class:`~repro.core.backends.TwoPhaseLockingBackend` implements the
  classical page-level strict-2PL baseline the paper compares against, and is
  selected with ``ConflictPolicy.TWO_PHASE_LOCKING`` (or by passing a backend
  instance directly).

A minimal example::

    from repro import Scheduler, ConflictPolicy
    from repro.adts import StackType

    scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
    scheduler.register_object("S", StackType())

    t1 = scheduler.begin()
    t2 = scheduler.begin()
    scheduler.perform(t1.tid, "S", "push", 4)
    scheduler.perform(t2.tid, "S", "push", 2)      # recoverable: runs at once
    scheduler.commit(t2.tid)                        # -> PSEUDO_COMMITTED
    scheduler.commit(t1.tid)                        # -> COMMITTED (and T2 too)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Dict, List, Mapping, Optional, Set

from .backends import ConcurrencyControlBackend, make_backend
from .compatibility import CompatibilitySpec
from .dependency_graph import DependencyGraph, EdgeKind
from .errors import TransactionStateError, UnknownObjectError
from .object_manager import ObjectManager, PendingRequest
from .policy import ConflictPolicy
from .requests import AbortReason, RequestHandle, RequestStatus
from .specification import Event, Invocation, TypeSpecification
from .transaction import Transaction, TransactionStatus

#: The enum members the per-request paths read, bound once: an attribute load
#: on an ``Enum`` class costs CPython 3.11 about 100 ns, a module global about 3.
_ACTIVE = TransactionStatus.ACTIVE
_BLOCKED = TransactionStatus.BLOCKED
_PSEUDO_COMMITTED = TransactionStatus.PSEUDO_COMMITTED
_COMMITTED = TransactionStatus.COMMITTED
_EXECUTED = RequestStatus.EXECUTED
_REQUEST_BLOCKED = RequestStatus.BLOCKED
_WAIT_FOR = EdgeKind.WAIT_FOR
_COMMIT_DEPENDENCY = EdgeKind.COMMIT_DEPENDENCY

__all__ = [
    "RequestStatus",
    "RequestHandle",
    "SchedulerListener",
    "SchedulerStatistics",
    "AbortReason",
    "Scheduler",
]


class SchedulerListener:
    """Base class for observers of scheduler decisions.

    All hooks default to no-ops; subclasses override what they need.  Hooks
    must not call back into the scheduler synchronously (the simulator, for
    instance, reacts by scheduling future simulation events).
    """

    def on_executed(self, transaction_id: int, handle: RequestHandle, event: Event) -> None:
        """An operation request executed immediately."""

    def on_blocked(self, transaction_id: int, handle: RequestHandle) -> None:
        """An operation request conflicted and was queued."""

    def on_granted(self, transaction_id: int, handle: RequestHandle, event: Event) -> None:
        """A previously blocked request was granted and has now executed."""

    def on_aborted(self, transaction_id: int, reason: AbortReason) -> None:
        """A transaction was aborted (by the scheduler or the user)."""

    def on_pseudo_committed(self, transaction_id: int) -> None:
        """A transaction pseudo-committed (complete, awaiting dependencies)."""

    def on_committed(self, transaction_id: int) -> None:
        """A transaction durably committed."""


@dataclass
class SchedulerStatistics:
    """Counters matching the metrics of Section 5.4 (scheduler-side part)."""

    operations_executed: int = 0
    blocks: int = 0
    commits: int = 0
    pseudo_commits: int = 0
    aborts: int = 0
    deadlock_aborts: int = 0
    dependency_cycle_aborts: int = 0
    user_aborts: int = 0
    #: Aborts forced by the multi-site layer (site failure/unavailability).
    site_aborts: int = 0
    cycle_checks: int = 0
    #: Sum over aborted transactions of their operation count at abort time.
    abort_length_total: int = 0
    commit_dependency_edges: int = 0
    wait_for_edges: int = 0

    @property
    def average_abort_length(self) -> float:
        """The paper's *abort length* metric (0.0 when nothing aborted)."""
        if not self.aborts:
            return 0.0
        return self.abort_length_total / self.aborts

    def as_dict(self) -> Dict[str, int]:
        """Every counter by name.

        The explicit field list (rather than ``dataclasses.asdict``) is what
        ``repro lint`` REP006 checks: a counter incremented somewhere but
        missing here would be silently lost from the measurement snapshot.
        """
        return {
            "operations_executed": self.operations_executed,
            "blocks": self.blocks,
            "commits": self.commits,
            "pseudo_commits": self.pseudo_commits,
            "aborts": self.aborts,
            "deadlock_aborts": self.deadlock_aborts,
            "dependency_cycle_aborts": self.dependency_cycle_aborts,
            "user_aborts": self.user_aborts,
            "site_aborts": self.site_aborts,
            "cycle_checks": self.cycle_checks,
            "abort_length_total": self.abort_length_total,
            "commit_dependency_edges": self.commit_dependency_edges,
            "wait_for_edges": self.wait_for_edges,
        }


class Scheduler:
    """Concurrency control over a set of shared objects.

    The protocol is chosen by ``policy`` (which selects the matching backend)
    or overridden outright by passing a ``backend`` instance.
    """

    #: Listener hooks dispatched through per-hook lists (see add_listener).
    _HOOKS = (
        "on_executed",
        "on_blocked",
        "on_granted",
        "on_aborted",
        "on_pseudo_committed",
        "on_committed",
    )

    def __init__(
        self,
        policy: ConflictPolicy = ConflictPolicy.RECOVERABILITY,
        fair: bool = True,
        retain_terminated: bool = True,
        backend: Optional[ConcurrencyControlBackend] = None,
    ):
        self.policy = policy
        self.fair = fair
        #: When ``False``, records of committed/aborted transactions are
        #: dropped from :attr:`transactions` as soon as they terminate.  The
        #: simulator uses this to keep memory flat over very long runs.
        self.retain_terminated = retain_terminated
        self.graph = DependencyGraph()
        self.objects: Dict[str, ObjectManager] = {}
        self.transactions: Dict[int, Transaction] = {}
        self.stats = SchedulerStatistics()
        self.backend = backend if backend is not None else make_backend(policy)
        self.backend.attach(self)
        #: The backend's two per-request hooks, bound once.  ``grant`` is
        #: ``None`` for a backend that leaves it at the do-nothing default, so
        #: a protocol without state of its own pays nothing per operation.
        self._decide = self.backend.decide
        self._grant = (
            self.backend.grant
            if type(self.backend).grant is not ConcurrencyControlBackend.grant
            else None
        )
        self._listeners: List[SchedulerListener] = []
        #: Per-hook dispatch lists: bound methods of the listeners that
        #: actually override each hook, so firing an unobserved hook costs
        #: nothing (the common case — most listeners watch 2-3 hooks).
        self._on_executed: List[Callable[[int, RequestHandle, Event], None]] = []
        self._on_blocked: List[Callable[[int, RequestHandle], None]] = []
        self._on_granted: List[Callable[[int, RequestHandle, Event], None]] = []
        self._on_aborted: List[Callable[[int, AbortReason], None]] = []
        self._on_pseudo_committed: List[Callable[[int], None]] = []
        self._on_committed: List[Callable[[int], None]] = []
        #: Objects that may have a non-empty blocked queue (an
        #: over-approximation, pruned as queues drain): terminations wake
        #: exactly the candidate objects instead of rescanning every queue.
        self._blocked_objects: Dict[str, ObjectManager] = {}
        self._next_tid = 0
        self._sequence = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def register_objects(
        self, spec: TypeSpecification, tables: Mapping[str, Optional[CompatibilitySpec]], *,
        initial_state: Any = None, materialize_state: bool = True,
    ) -> None:
        """Register one shared object of type ``spec`` per name in ``tables``.

        ``tables`` maps each name to its compatibility tables (``None``: the
        type's declared ones); the managers are built in ``tables`` order and
        start from one shared ``initial_state`` (default: one
        ``spec.initial_state()`` for the batch; states are never edited in
        place).  This is the one place that builds managers.
        """
        if initial_state is None:
            initial_state = spec.initial_state()
        objects = self.objects
        for name, compatibility in tables.items():
            objects[name] = ObjectManager(
                name, spec, initial_state, compatibility, materialize_state
            )

    def register_object(
        self,
        name: str,
        spec: TypeSpecification,
        compatibility: Optional[CompatibilitySpec] = None,
        initial_state: Any = None,
        materialize_state: bool = True,
    ) -> ObjectManager:
        """Register a shared object managed by this scheduler: the batch of
        one of :meth:`register_objects`."""
        self.register_objects(
            spec, {name: compatibility},
            initial_state=initial_state, materialize_state=materialize_state,
        )
        return self.objects[name]

    def object(self, name: str) -> ObjectManager:
        """Return the object manager for ``name``."""
        try:
            return self.objects[name]
        except KeyError:
            raise UnknownObjectError(name) from None

    def add_listener(self, listener: SchedulerListener) -> None:
        """Subscribe a listener to scheduler decisions.

        Dispatch is per hook: a listener's bound method is registered only
        for the hooks its class overrides, so notification loops skip
        listeners that would no-op.  Relative order among listeners is
        preserved within every hook.
        """
        self._listeners.append(listener)
        listener_type = type(listener)
        for hook in self._HOOKS:
            if getattr(listener_type, hook) is not getattr(SchedulerListener, hook):
                getattr(self, "_" + hook).append(getattr(listener, hook))

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self, label: Optional[str] = None) -> Transaction:
        """Start a new transaction and return its record."""
        self._next_tid += 1
        transaction = Transaction(tid=self._next_tid, label=label)
        self.transactions[transaction.tid] = transaction
        self.graph.add_node(transaction.tid)
        return transaction

    @property
    def begun(self) -> int:
        """Transactions begun since construction (or the last crash)."""
        return self._next_tid

    def transaction(self, transaction_id: int) -> Transaction:
        """Return the record of an existing transaction."""
        try:
            return self.transactions[transaction_id]
        except KeyError:
            raise TransactionStateError(f"unknown transaction {transaction_id}") from None

    def live_transactions(self) -> List[Transaction]:
        """Transactions whose operations still participate in conflicts."""
        return [t for t in self.transactions.values() if t.status.is_live]

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def perform(self, transaction_id: int, object_name: str, op: str, *args: Any) -> RequestHandle:
        """Request execution of ``op(*args)`` on ``object_name``.

        Returns a :class:`RequestHandle` whose status is ``EXECUTED`` (value
        available), ``BLOCKED`` (queued; will be granted or aborted later), or
        ``ABORTED`` (the request would have closed a dependency cycle and the
        transaction was aborted).
        """
        return self.submit(transaction_id, object_name, Invocation(op, tuple(args)))

    def submit(
        self, transaction_id: int, object_name: str, invocation: Invocation
    ) -> RequestHandle:
        """Like :meth:`perform` but takes a prebuilt :class:`Invocation`.

        Figure 2, the only way in: the backend states the request's relation
        to the other transactions once, and the request blocks behind the
        conflicting ones, or executes with a commit dependency on each
        recoverable one, or its transaction is aborted on a cycle.
        """
        try:
            transaction = self.transactions[transaction_id]
        except KeyError:
            raise TransactionStateError(f"unknown transaction {transaction_id}") from None
        if transaction.status is not _ACTIVE:
            transaction.require(_ACTIVE)
        try:
            manager = self.objects[object_name]
        except KeyError:
            raise UnknownObjectError(object_name) from None
        handle = RequestHandle(transaction_id, object_name, invocation)
        conflicting, recoverable = self._decide(
            manager, invocation, transaction_id, len(manager.blocked) if self.fair else 0
        )
        if conflicting:
            self.block_request(transaction, manager, handle, conflicting)
        elif not recoverable or self._depend(transaction, handle, recoverable):
            self.execute_operation(transaction, manager, handle, False)
        return handle

    # ------------------------------------------------------------------
    # The three outcomes of Figure 2
    # ------------------------------------------------------------------
    def block_request(
        self,
        transaction: Transaction,
        manager: ObjectManager,
        handle: RequestHandle,
        conflicting: AbstractSet[int],
    ) -> None:
        """Block a request: wait-for edges, deadlock check, then wait."""
        self.stats.cycle_checks += 1
        transaction.cycle_checks += 1
        if self.graph.creates_cycle(transaction.tid, conflicting):
            self.backend.abort(transaction, AbortReason.DEADLOCK, handle)
            return
        self.graph.add_edges(transaction.tid, conflicting, _WAIT_FOR)
        self.stats.wait_for_edges += len(conflicting)
        transaction.status = _BLOCKED
        transaction.blocks += 1
        self.stats.blocks += 1
        handle.status = _REQUEST_BLOCKED
        manager.enqueue_blocked(PendingRequest(transaction.tid, handle.invocation, handle))
        self._blocked_objects[manager.name] = manager
        transaction.blocked_at.add(manager.name)
        for on_blocked in self._on_blocked:
            on_blocked(transaction.tid, handle)

    def _depend(
        self, transaction: Transaction, handle: RequestHandle, recoverable: AbstractSet[int]
    ) -> bool:
        """Commit-dependency edges to ``recoverable``; ``False`` (and the
        transaction aborted) when they would close a cycle."""
        self.stats.cycle_checks += 1
        transaction.cycle_checks += 1
        if self.graph.creates_cycle(transaction.tid, recoverable):
            self.backend.abort(transaction, AbortReason.DEPENDENCY_CYCLE, handle)
            return False
        self.graph.add_edges(transaction.tid, recoverable, _COMMIT_DEPENDENCY)
        self.stats.commit_dependency_edges += len(recoverable)
        return True

    def execute_operation(
        self,
        transaction: Transaction,
        manager: ObjectManager,
        handle: RequestHandle,
        from_queue: bool,
    ) -> Event:
        """Execute a request the decision let through and publish the result.

        Every grant — a first submit or a request leaving a blocked queue
        (``from_queue``: listeners hear ``on_granted`` instead of
        ``on_executed``) — runs this frame, which lets the backend record its
        protocol state, has the object manager execute the operation and log
        its event (:meth:`ObjectManager.execute`, the one execution kernel),
        and records the event on the transaction.

        Afterwards the waiters on the object are kept honest: every blocked
        request must hold wait-for edges to *all* the transactions it
        conflicts with, or a deadlock could go undetected.
        """
        invocation = handle.invocation
        transaction_id = transaction.tid
        grant = self._grant
        waiters_moved = grant is not None and grant(manager, invocation, transaction_id)
        sequence = self._sequence + 1
        self._sequence = sequence
        event = manager.execute(invocation, transaction_id, sequence)
        transaction.events.append(event)
        transaction.objects_visited.add(manager.name)
        transaction.status = _ACTIVE
        handle.status = _EXECUTED
        handle.value = event.value
        self.stats.operations_executed += 1
        if from_queue:
            for on_granted in self._on_granted:
                on_granted(transaction_id, handle, event)
        else:
            for on_executed in self._on_executed:
                on_executed(transaction_id, handle, event)
        if manager.blocked:
            self.backend.after_execute(manager, event)
            if waiters_moved:
                self.refresh_waiters(manager)
        return event

    def refresh_waiters(self, manager: ObjectManager) -> None:
        """Re-point the wait-for edges of every request queued on ``manager``
        at its current conflict set (asked for by :meth:`grant
        <repro.core.backends.ConcurrencyControlBackend.grant>`)."""
        restart = True
        while restart:
            restart = False
            # Iterate the live queue so ``ahead`` always describes the current
            # FIFO order.  The only mutating outcome is an abort (refresh
            # returns True), whose termination cascade may dequeue or grant
            # other waiters — restart the scan from a consistent view then.
            for index, pending in enumerate(manager.blocked):
                waiter = self.transactions.get(pending.transaction_id)
                if waiter is None or waiter.status is not _BLOCKED:
                    continue
                conflicting, _ = self._decide(
                    manager, pending.invocation, pending.transaction_id, index if self.fair else 0
                )
                if self.refresh_wait_edges(waiter, conflicting):
                    restart = True
                    break

    def refresh_wait_edges(self, transaction: Transaction, conflicting: AbstractSet[int]) -> bool:
        """Re-point a blocked transaction's wait-for edges at ``conflicting``.

        Returns ``True`` if doing so would close a cycle, in which case the
        waiter is aborted (deadlock victim) and the caller should rescan.
        """
        current = self.waiting_for(transaction.tid)
        if current == conflicting:
            return False
        self.graph.remove_edges_from(transaction.tid, _WAIT_FOR)
        self.stats.cycle_checks += 1
        transaction.cycle_checks += 1
        if self.graph.creates_cycle(transaction.tid, conflicting):
            self.backend.abort(transaction, AbortReason.DEADLOCK)
            return True
        self.graph.add_edges(transaction.tid, conflicting, _WAIT_FOR)
        return False

    def retry_blocked(self, manager: ObjectManager) -> None:
        """Grant queued requests that no longer conflict, preserving fairness.

        One decision per queue entry: the answer that finds an entry free of
        conflicts also carries the recoverable set it is granted with."""
        progressed = True
        while progressed:
            progressed = False
            # Snapshot the queue binding per pass: up to the first mutating
            # outcome (stale drop, deadlock abort, grant — each breaks out of
            # the loop) it is the live queue, so ``del queue[index]`` removes
            # exactly the entry under the cursor.  Removal by position, not
            # by value: PendingRequest compares by fields, so ``remove()``
            # could drop an earlier equal entry and starve this one.
            queue = manager.blocked
            for index, pending in enumerate(queue):
                transaction = self.transactions.get(pending.transaction_id)
                if transaction is None or transaction.status is not _BLOCKED:
                    del queue[index]
                    if transaction is not None:
                        transaction.blocked_at.discard(manager.name)
                    progressed = True
                    break
                conflicting, recoverable = self._decide(
                    manager, pending.invocation, pending.transaction_id, index if self.fair else 0
                )
                if conflicting:
                    # Still blocked: make sure its wait-for edges describe the
                    # *current* conflict set, otherwise a deadlock formed since
                    # the original block could go undetected.
                    if self.refresh_wait_edges(transaction, conflicting):
                        # The refresh found a cycle and aborted the waiter.
                        progressed = True
                        break
                    continue
                del queue[index]
                transaction.blocked_at.discard(manager.name)
                handle = pending.payload
                # The wait-for edges described the old conflict set and must
                # not linger (they would cause spurious deadlock aborts later).
                self.graph.remove_edges_from(transaction.tid, _WAIT_FOR)
                if not recoverable or self._depend(transaction, handle, recoverable):
                    self.execute_operation(transaction, manager, handle, True)
                progressed = True
                break
        if not manager.blocked:
            self._blocked_objects.pop(manager.name, None)

    # ------------------------------------------------------------------
    # Crash
    # ------------------------------------------------------------------
    def discard_volatile(self) -> None:
        """Drop exactly what a crash loses, in place.

        Volatile: transactions, dependency graph, blocked queues, uncommitted
        logs, the backend's protocol state (lock table), statistics,
        tid/sequence counters — each goes back to its just-constructed value.
        Durable or structural, and kept: the managers with their *committed*
        states and compiled policy tables, the backend, the listener
        subscriptions.  Listeners keep their own state: a subscribed
        :class:`~repro.core.ExecutionLog` keeps what it recorded.
        """
        self.graph = DependencyGraph()
        for manager in self.objects.values():
            manager.discard_volatile()
        self.transactions.clear()
        self.stats = SchedulerStatistics()
        self._blocked_objects.clear()
        self._next_tid = 0
        self._sequence = 0
        self.backend.reset()

    # ------------------------------------------------------------------
    # Commit protocol
    # ------------------------------------------------------------------
    def commit(self, transaction_id: int) -> TransactionStatus:
        """Attempt to commit a transaction.

        Returns ``COMMITTED`` when the backend could commit immediately, or
        ``PSEUDO_COMMITTED`` when the transaction must wait for the
        transactions it depends on to terminate first (semantic backend
        only).  A blocked transaction cannot commit (its last request has not
        executed).
        """
        transaction = self.transaction(transaction_id)
        transaction.require(TransactionStatus.ACTIVE)
        return self.backend.commit(transaction)

    def record_pseudo_commit(self, transaction: Transaction) -> TransactionStatus:
        """Mark a transaction pseudo-committed and notify listeners."""
        transaction.status = _PSEUDO_COMMITTED
        self.stats.pseudo_commits += 1
        for on_pseudo_committed in self._on_pseudo_committed:
            on_pseudo_committed(transaction.tid)
        return _PSEUDO_COMMITTED

    def finalize_commit(self, transaction: Transaction) -> None:
        """Durably commit a transaction whose dependencies have all terminated."""
        for object_name in transaction.objects_visited:
            self.objects[object_name].remove_transaction(transaction.tid, commit=True)
        transaction.status = _COMMITTED
        self.stats.commits += 1
        for on_committed in self._on_committed:
            on_committed(transaction.tid)
        self._after_termination(transaction)

    # ------------------------------------------------------------------
    # Abort
    # ------------------------------------------------------------------
    def abort(self, transaction_id: int, reason: AbortReason = AbortReason.USER) -> None:
        """Abort an active or blocked transaction and undo its operations."""
        transaction = self.transaction(transaction_id)
        transaction.require(TransactionStatus.ACTIVE, TransactionStatus.BLOCKED)
        self.backend.abort(transaction, reason)

    def internal_abort(
        self,
        transaction: Transaction,
        reason: AbortReason,
        handle: Optional[RequestHandle] = None,
    ) -> None:
        """Shared abort bookkeeping (invoked through the backend)."""
        self.stats.aborts += 1
        if reason is AbortReason.DEADLOCK:
            self.stats.deadlock_aborts += 1
        elif reason is AbortReason.DEPENDENCY_CYCLE:
            self.stats.dependency_cycle_aborts += 1
        elif reason in (AbortReason.SITE_FAILURE, AbortReason.SITE_UNAVAILABLE):
            self.stats.site_aborts += 1
        else:
            self.stats.user_aborts += 1
        self.stats.abort_length_total += transaction.operation_count

        # Undo: delete the transaction's operations from every object log and
        # drop any request it still has queued.  Objects where a queued
        # request was dropped must also be retried: under fair scheduling
        # other transactions may be waiting behind that request even though
        # the aborted transaction never executed anything on the object.
        retry_objects = set(transaction.objects_visited)
        for object_name in sorted(transaction.blocked_at):
            manager = self.objects.get(object_name)
            if manager is None:
                continue
            removed_pending = manager.remove_blocked_of(transaction.tid)
            if removed_pending:
                retry_objects.add(manager.name)
                if not manager.blocked:
                    self._blocked_objects.pop(object_name, None)
            for pending in removed_pending:
                pending.payload.status = RequestStatus.ABORTED
                pending.payload.abort_reason = reason
        transaction.blocked_at.clear()
        for object_name in transaction.objects_visited:
            self.objects[object_name].remove_transaction(transaction.tid, commit=False)

        transaction.status = TransactionStatus.ABORTED
        if handle is not None:
            handle.status = RequestStatus.ABORTED
            handle.abort_reason = reason
        for on_aborted in self._on_aborted:
            on_aborted(transaction.tid, reason)
        self._after_termination(transaction, retry_objects=retry_objects)

    # ------------------------------------------------------------------
    # Termination bookkeeping
    # ------------------------------------------------------------------
    def _after_termination(
        self, transaction: Transaction, retry_objects: Optional[Set[str]] = None
    ) -> None:
        """Node removal, cascaded commits of pseudo-committed transactions,
        and backend-driven retry of blocked requests (Sections 4.2-4.3)."""
        former_predecessors = self.graph.remove_node(transaction.tid)

        # Only transactions that pointed at the removed node can have dropped
        # to out-degree zero; committing one of them recurses back here, which
        # handles arbitrarily long commit-dependency chains.
        for predecessor_id in sorted(former_predecessors):
            candidate = self.transactions.get(predecessor_id)
            if candidate is None:
                continue
            if candidate.status is not _PSEUDO_COMMITTED:
                continue
            if self.graph.out_degree(candidate.tid) == 0:
                self.finalize_commit(candidate)

        # Let the backend release protocol state (e.g. locks) and retry
        # blocked requests on the objects the terminated transaction touched.
        if retry_objects is None:
            retry_objects = transaction.objects_visited
        self.backend.on_terminate(transaction, retry_objects)

        if not self.retain_terminated:
            self.transactions.pop(transaction.tid, None)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def commit_dependencies(self, transaction_id: int) -> Set[int]:
        """Transactions that ``transaction_id`` must commit after."""
        return self.graph.successors_by_kind(transaction_id, EdgeKind.COMMIT_DEPENDENCY)

    def waiting_for(self, transaction_id: int) -> Set[int]:
        """Transactions that ``transaction_id`` is blocked behind."""
        return self.graph.successors_by_kind(transaction_id, EdgeKind.WAIT_FOR)

    def object_state(self, name: str) -> Any:
        """The currently visible state of an object (committed + uncommitted)."""
        return self.object(name).current_state

    def committed_state(self, name: str) -> Any:
        """The committed state of an object (effects of committed transactions only)."""
        return self.object(name).committed_state
