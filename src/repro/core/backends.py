"""Pluggable concurrency-control backends.

The :class:`~repro.core.scheduler.Scheduler` owns the machinery every
concurrency-control protocol needs — the transaction table, the per-object
managers with their blocked-request queues, the unified dependency graph, the
statistics, history and listeners — and delegates the protocol *decisions* to
a :class:`ConcurrencyControlBackend`:

``admit``
    decide whether a requested operation executes, blocks, or aborts its
    transaction;
``commit``
    decide whether a completed transaction durably commits at once or must
    wait (pseudo-commit);
``abort``
    abort a transaction (both user-requested and protocol-chosen victims route
    through here);
``on_terminate``
    react to a termination: release protocol state (e.g. locks) and retry
    blocked requests that may now be grantable.

Two backends are provided:

* :class:`SemanticBackend` — the paper's recoverability/commutativity protocol
  (Figure 2 admission, commit dependencies, pseudo-commit), driven by the
  compatibility tables through :class:`~repro.core.policy.ConflictPolicy`;
* :class:`TwoPhaseLockingBackend` — the classical baseline the paper measures
  against: page-level strict two-phase locking with shared/exclusive lock
  modes, FIFO waiting, and deadlock detection via the same wait-for graph.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Dict, Optional, Set

from .compatibility import ConflictClass
from .dependency_graph import EdgeKind
from .errors import ReproError, TransactionStateError, UnknownObjectError, UnknownOperationError
from .object_manager import ObjectManager, _OperationGroup
from .policy import ConflictPolicy
from .requests import AbortReason, RequestHandle, RequestStatus
from .specification import Event, Invocation, OperationResult
from .transaction import Transaction, TransactionStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .scheduler import Scheduler

#: Signature of a fused submit fast path (see ``compile_submit``).
FusedSubmit = Callable[[int, str, Invocation], RequestHandle]

__all__ = [
    "ConcurrencyControlBackend",
    "SemanticBackend",
    "TwoPhaseLockingBackend",
    "LockMode",
    "make_backend",
]


class ConcurrencyControlBackend:
    """Protocol-specific half of the scheduler.

    A backend is attached to exactly one scheduler and may keep per-run state
    (the 2PL backend keeps its lock table here).  Subclasses must implement
    :meth:`admit`, :meth:`commit` and :meth:`blocking_conflicts`; the shared
    default implementations of :meth:`abort` and :meth:`on_terminate` cover
    the common bookkeeping.
    """

    #: Short name used in reports and ``repr``.
    name = "abstract"

    def __init__(self) -> None:
        self.scheduler: "Scheduler" = None  # type: ignore[assignment]

    def attach(self, scheduler: "Scheduler") -> None:
        """Bind the backend to its scheduler (called once, at construction).

        Backends hold per-run protocol state (the 2PL lock table, for one),
        so an instance must not be shared between schedulers — stale locks
        from a previous run would block the new one forever.
        """
        if self.scheduler is not None and self.scheduler is not scheduler:
            raise ReproError(
                f"{type(self).__name__} is already attached to a scheduler; "
                "construct a fresh backend instance per Scheduler"
            )
        self.scheduler = scheduler

    # ------------------------------------------------------------------
    # Protocol decisions
    # ------------------------------------------------------------------
    def admit(
        self,
        transaction: Transaction,
        manager: "ObjectManager",
        handle: RequestHandle,
        from_queue: bool,
    ) -> None:
        """Decide the fate of an operation request (execute/block/abort).

        ``from_queue`` is True when the request is being re-admitted from an
        object's blocked queue; its stale wait-for edges must be dropped.
        """
        raise NotImplementedError

    def commit(self, transaction: Transaction) -> TransactionStatus:
        """Commit a completed transaction; returns the resulting status."""
        raise NotImplementedError

    def abort(
        self,
        transaction: Transaction,
        reason: AbortReason,
        handle: Optional[RequestHandle] = None,
    ) -> None:
        """Abort a transaction (user request or protocol-chosen victim)."""
        self.scheduler.internal_abort(transaction, reason, handle)

    def on_terminate(self, transaction: Transaction, retry_objects: Set[str]) -> None:
        """A transaction terminated: retry blocked requests that may now run.

        Consults the scheduler's blocked-object index rather than the full
        object table: an object with an empty queue has nothing to wake, so a
        termination touches exactly the objects with pending requests instead
        of rescanning every queue it visited.  ``retry_objects`` may be the
        transaction's own ``objects_visited`` set, so it is only read.
        """
        scheduler = self.scheduler
        blocked_index = scheduler._blocked_objects
        if not blocked_index:
            return
        for object_name in sorted(retry_objects):
            manager = blocked_index.get(object_name)
            if manager is not None:
                scheduler.retry_blocked(manager)

    def reset(self) -> None:
        """Drop per-run protocol state (for :meth:`Scheduler.reset`).

        The base backends keep no state beyond the scheduler reference; the
        2PL backend clears its lock table here.
        """

    def compile_submit(self) -> Optional[FusedSubmit]:
        """An optional fused fast path that replaces ``Scheduler.submit``.

        Called once at scheduler construction, after :meth:`attach`.  A
        backend may return a closure with the exact semantics of
        ``Scheduler.submit`` that short-circuits the common no-conflict case
        (falling back to :meth:`admit` whenever a protocol decision is
        needed); returning ``None`` keeps the general path — the default, and
        what subclasses of the built-in backends get unless they opt in.
        """
        return None

    # ------------------------------------------------------------------
    # Hooks used by the shared scheduler machinery
    # ------------------------------------------------------------------
    def after_execute(self, manager: "ObjectManager", event: Event) -> None:
        """Called after every executed operation (blocked-waiter upkeep)."""

    def blocking_conflicts(
        self,
        manager: "ObjectManager",
        invocation: Invocation,
        transaction_id: int,
        upto: Optional[int] = None,
    ) -> Set[int]:
        """The transactions currently preventing ``invocation`` from running.

        Used by the shared retry loop to decide whether a queued request is
        still blocked, and against whom its wait-for edges should point.
        ``upto`` restricts the fairness check to queue entries ahead of the
        candidate.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def _grant_fused(
    scheduler: "Scheduler",
    transaction: Transaction,
    manager: ObjectManager,
    handle: RequestHandle,
    invocation: Invocation,
    transaction_id: int,
    key: Optional[tuple],
) -> Optional[Event]:
    """Execute an already-admitted request without re-entering the scheduler.

    This is ``Scheduler.execute_operation`` + ``ObjectManager.execute`` +
    ``Transaction.record_event`` flattened into one frame, shared by the fused
    submit closures.  ``key`` is the precomputed ``(op id, conflict param)``
    group identity, or ``None`` to index through the manager's general path;
    it must equal what ``ObjectManager._group_key`` derives from the
    invocation, because removal re-derives the key from the event instead of
    remembering it per event.

    Returns the executed event, or ``None`` when the manager's spec cannot be
    direct-applied — in that case *nothing has been mutated* and the caller
    must fall back to the general admission path.
    """
    if manager.materialize_state:
        fns = manager._op_functions
        if fns is None:
            return None
        try:
            fn = fns[invocation.op]
        except KeyError:
            return None
        sequence = scheduler._sequence + 1
        scheduler._sequence = sequence
        result = fn(manager.current_state, invocation.args)
        if result.__class__ is not OperationResult:
            # Non-conforming return: re-run through the legacy chain for its
            # exact validation error (functions are pure, so this is safe).
            result = manager.spec.apply(manager.current_state, invocation)
        manager.current_state = result.state
        value = result.value
    else:
        sequence = scheduler._sequence + 1
        scheduler._sequence = sequence
        value = None
    event = Event(
        object_name=manager.name,
        invocation=invocation,
        value=value,
        transaction_id=transaction_id,
        sequence=sequence,
    )
    manager.uncommitted.append(event)
    by_tid = manager._events_by_tid
    try:
        by_tid[transaction_id].append(event)
    except KeyError:
        by_tid[transaction_id] = [event]
    if key is None:
        manager._index_event(event)
    else:
        groups = manager._op_groups
        try:
            group = groups[key]
        except KeyError:
            group = groups[key] = _OperationGroup(
                invocation=invocation, op_id=key[0], param=key[1]
            )
            group.owners[transaction_id] = 1
        except TypeError:
            # Unhashable conflict parameter: the general path gives the
            # event its own fallback group.
            manager._index_event(event)
        else:
            owners = group.owners
            try:
                owners[transaction_id] += 1
            except KeyError:
                owners[transaction_id] = 1
    history = scheduler.history
    if history is not None:
        history.append_event(event)
    transaction.events.append(event)
    transaction.objects_visited.add(manager.name)
    transaction.status = TransactionStatus.ACTIVE
    handle.status = RequestStatus.EXECUTED
    handle.value = value
    scheduler.stats.operations_executed += 1
    for on_executed in scheduler._on_executed:
        on_executed(transaction_id, handle, event)
    return event


class SemanticBackend(ConcurrencyControlBackend):
    """Recoverability/commutativity concurrency control (Sections 4.2-4.3).

    Implements the operation-admission algorithm of Figure 2: a request is
    classified against the uncommitted operations of other transactions; it
    blocks behind conflicts (wait-for edges), executes immediately over
    recoverable operations (commit-dependency edges), and the transaction is
    aborted if either edge set would close a cycle.  Which classifications
    count as conflicts is decided by the scheduler's
    :class:`~repro.core.policy.ConflictPolicy`.
    """

    name = "semantic"

    # ------------------------------------------------------------------
    # Admission (Figure 2)
    # ------------------------------------------------------------------
    def admit(
        self,
        transaction: Transaction,
        manager: "ObjectManager",
        handle: RequestHandle,
        from_queue: bool,
    ) -> None:
        scheduler = self.scheduler
        invocation = handle.invocation
        if from_queue:
            # The request is leaving the blocked queue: its wait-for edges
            # described the old conflict set and must not linger (they would
            # cause spurious deadlock aborts later).
            scheduler.graph.remove_edges_from(transaction.tid, EdgeKind.WAIT_FOR)
        classification = manager.classify_request(invocation, transaction.tid, scheduler.policy)
        conflicting = set(classification.conflicting)
        if scheduler.fair and not from_queue:
            conflicting |= manager.blocked_conflicts(invocation, transaction.tid, scheduler.policy)

        if conflicting:
            scheduler.block_request(transaction, manager, handle, conflicting)
            return

        if classification.recoverable:
            scheduler.stats.cycle_checks += 1
            transaction.cycle_checks += 1
            if scheduler.graph.creates_cycle(transaction.tid, classification.recoverable):
                self.abort(transaction, AbortReason.DEPENDENCY_CYCLE, handle)
                return
            scheduler.graph.add_edges(
                transaction.tid, classification.recoverable, EdgeKind.COMMIT_DEPENDENCY
            )
            scheduler.stats.commit_dependency_edges += len(classification.recoverable)

        scheduler.execute_operation(transaction, manager, handle, from_queue=from_queue)

    def compile_submit(self) -> Optional[FusedSubmit]:
        """Fuse submit → admit → classification for the no-conflict case.

        The compiled closure replays ``Scheduler.submit``'s exact lookup and
        error sequence, then scans the manager's operation groups inline: if
        the object has no queued requests and the invocation commutes with
        every uncommitted operation of other transactions, the grant is
        executed in this same frame (``_grant_fused``).  Any other outcome —
        a queued request (fairness), an operation outside the compiled
        tables, a non-commutative pair — bails out to :meth:`admit`, which
        recomputes the classification from scratch: the scan is pure, so the
        fallback is bit-identical to never having taken the fast path.
        """
        if type(self) is not SemanticBackend:
            # Subclasses may override admission; they must opt in explicitly.
            return None
        scheduler = self.scheduler
        admit = self.admit
        active = TransactionStatus.ACTIVE
        commutative = ConflictClass.COMMUTATIVE
        pool_requests = scheduler.pool_requests
        handle_pool = scheduler.handle_pool

        def fused_submit(
            transaction_id: int, object_name: str, invocation: Invocation
        ) -> RequestHandle:
            try:
                transaction = scheduler.transactions[transaction_id]
            except KeyError:
                raise TransactionStateError(
                    f"unknown transaction {transaction_id}"
                ) from None
            if transaction.status is not active:
                transaction.require(active)
            try:
                manager = scheduler.objects[object_name]
            except KeyError:
                raise UnknownObjectError(object_name) from None
            if pool_requests and handle_pool.free:
                # The fused submit writes into a pooled handle: every
                # caller-visible field is reinitialised, so the reused box is
                # indistinguishable from a fresh construction (generation
                # excepted — it keeps counting for staleness detection).
                handle_pool.reused += 1
                handle = handle_pool.free.pop()
                handle.transaction_id = transaction_id
                handle.object_name = object_name
                handle.invocation = invocation
                handle.status = None
            else:
                handle_pool.created += pool_requests
                handle = RequestHandle(
                    transaction_id=transaction_id,
                    object_name=object_name,
                    invocation=invocation,
                )
            if manager.blocked:
                admit(transaction, manager, handle, False)
                if pool_requests:
                    handles = transaction.handles
                    if handles is None:
                        handles = transaction.handles = []
                    handles.append(handle)
                return handle
            try:
                requested_id = manager._op_index[invocation.op]
            except KeyError:
                admit(transaction, manager, handle, False)
                if pool_requests:
                    handles = transaction.handles
                    if handles is None:
                        handles = transaction.handles = []
                    handles.append(handle)
                return handle
            if manager._param_is_args:
                requested_param = invocation.args
            else:
                requested_param = manager.spec.conflict_parameter(invocation)
            groups = manager._op_groups
            if groups:
                policy = scheduler.policy
                if policy is manager._compiled_policy:
                    tables = manager._compiled_tables
                else:
                    tables = manager._tables_for(policy)
                assert tables is not None
                unconditional_table = tables[0]
                base = requested_id * manager._n_ops
                for group in groups.values():
                    owners = group.owners
                    if not owners or (len(owners) == 1 and transaction_id in owners):
                        continue
                    group_id = group.op_id
                    if group_id < 0:
                        admit(transaction, manager, handle, False)
                        if pool_requests:
                            handles = transaction.handles
                            if handles is None:
                                handles = transaction.handles = []
                            handles.append(handle)
                        return handle
                    index = base + group_id
                    pairwise = unconditional_table[index]
                    if pairwise is None:
                        if requested_param == group.param:
                            pairwise = tables[1][index]
                        else:
                            pairwise = tables[2][index]
                    if pairwise is not commutative:
                        admit(transaction, manager, handle, False)
                        if pool_requests:
                            handles = transaction.handles
                            if handles is None:
                                handles = transaction.handles = []
                            handles.append(handle)
                        return handle
            if (
                _grant_fused(
                    scheduler,
                    transaction,
                    manager,
                    handle,
                    invocation,
                    transaction_id,
                    (requested_id, requested_param),
                )
                is None
            ):
                admit(transaction, manager, handle, False)
            if pool_requests:
                handles = transaction.handles
                if handles is None:
                    handles = transaction.handles = []
                handles.append(handle)
            return handle

        return fused_submit

    def after_execute(self, manager: "ObjectManager", event: Event) -> None:
        """Keep blocked transactions' wait-for edges complete.

        Every blocked request must hold wait-for edges to *all* transactions
        with conflicting uncommitted operations, otherwise a deadlock can go
        undetected.  When a new operation executes (either under unfair
        scheduling or because a queued request was granted ahead of others),
        blocked requests that conflict with it gain an edge to the executor;
        if that edge closes a cycle the blocked transaction is the victim.
        """
        scheduler = self.scheduler
        if not manager.blocked:
            return
        for pending in list(manager.blocked):
            if pending.transaction_id == event.transaction_id:
                continue
            waiter = scheduler.transactions.get(pending.transaction_id)
            if waiter is None or waiter.status is not TransactionStatus.BLOCKED:
                continue
            pairwise = manager.classify_pair(pending.invocation, event.invocation, scheduler.policy)
            if pairwise is not ConflictClass.CONFLICT:
                continue
            if scheduler.graph.has_edge(waiter.tid, event.transaction_id, EdgeKind.WAIT_FOR):
                continue
            scheduler.stats.cycle_checks += 1
            waiter.cycle_checks += 1
            if scheduler.graph.creates_cycle(waiter.tid, {event.transaction_id}):
                self.abort(waiter, AbortReason.DEADLOCK)
                continue
            scheduler.graph.add_edge(waiter.tid, event.transaction_id, EdgeKind.WAIT_FOR)
            scheduler.stats.wait_for_edges += 1

    # ------------------------------------------------------------------
    # Commit protocol (Section 4.3)
    # ------------------------------------------------------------------
    def commit(self, transaction: Transaction) -> TransactionStatus:
        scheduler = self.scheduler
        if scheduler.graph.out_degree(transaction.tid) > 0:
            return scheduler.record_pseudo_commit(transaction)
        scheduler.finalize_commit(transaction)
        return TransactionStatus.COMMITTED

    # ------------------------------------------------------------------
    # Retry support
    # ------------------------------------------------------------------
    def blocking_conflicts(
        self,
        manager: "ObjectManager",
        invocation: Invocation,
        transaction_id: int,
        upto: Optional[int] = None,
    ) -> Set[int]:
        scheduler = self.scheduler
        conflicting = set(
            manager.classify_request(invocation, transaction_id, scheduler.policy).conflicting
        )
        if scheduler.fair:
            conflicting |= manager.blocked_conflicts(
                invocation, transaction_id, scheduler.policy, upto=upto
            )
        return conflicting


class LockMode(enum.Enum):
    """Lock modes of the strict-2PL backend."""

    SHARED = "shared"
    EXCLUSIVE = "exclusive"

    def conflicts_with(self, other: "LockMode") -> bool:
        """Two lock requests conflict unless both are shared."""
        return self is LockMode.EXCLUSIVE or other is LockMode.EXCLUSIVE


class TwoPhaseLockingBackend(ConcurrencyControlBackend):
    """Page-level strict two-phase locking — the paper's classical baseline.

    Every object carries one lock with shared/exclusive modes: an operation
    whose :class:`~repro.core.specification.OperationSpec` is marked
    ``is_read_only`` takes a shared lock, everything else an exclusive lock
    (page-level locking is deliberately blind to operation semantics — that is
    the point of the baseline).  Locks are held until the owning transaction
    terminates (*strict* 2PL), so commits are always immediate and no commit
    dependencies ever arise.  Waiting is FIFO per object, deadlocks are
    detected with the scheduler's shared wait-for graph, and the requester
    that would close a cycle is the victim — the same victim rule as the
    semantic backend, which keeps the two backends comparable.
    """

    name = "two-phase-locking"

    def __init__(self) -> None:
        super().__init__()
        #: object name -> {transaction id -> granted mode}
        self._locks: Dict[str, Dict[int, LockMode]] = {}
        #: transaction id -> object names where it holds a lock
        self._held: Dict[int, Set[str]] = {}

    # ------------------------------------------------------------------
    # Lock-table helpers
    # ------------------------------------------------------------------
    def required_mode(self, manager: "ObjectManager", invocation: Invocation) -> LockMode:
        """The lock mode ``invocation`` needs on ``manager``'s object."""
        try:
            operation = manager.spec.operation(invocation.op)
        except UnknownOperationError:
            return LockMode.EXCLUSIVE
        return LockMode.SHARED if operation.is_read_only else LockMode.EXCLUSIVE

    def holders(self, object_name: str) -> Dict[int, LockMode]:
        """Current lock holders of one object (empty when unlocked)."""
        return dict(self._locks.get(object_name, {}))

    def _lock_conflicts(
        self, manager: "ObjectManager", mode: LockMode, transaction_id: int
    ) -> Set[int]:
        holders = self._locks.get(manager.name)
        if not holders:
            return set()
        return {
            tid
            for tid, granted in holders.items()
            if tid != transaction_id and mode.conflicts_with(granted)
        }

    def _queued_conflicts(
        self,
        manager: "ObjectManager",
        mode: LockMode,
        transaction_id: int,
        upto: Optional[int] = None,
    ) -> Set[int]:
        queue = manager.blocked if upto is None else manager.blocked[:upto]
        owners: Set[int] = set()
        for pending in queue:
            if pending.transaction_id == transaction_id:
                continue
            if mode.conflicts_with(self.required_mode(manager, pending.invocation)):
                owners.add(pending.transaction_id)
        return owners

    def _acquire(self, object_name: str, transaction_id: int, mode: LockMode) -> bool:
        """Grant (or extend) a lock; returns True when the table changed."""
        holders = self._locks.setdefault(object_name, {})
        current = holders.get(transaction_id)
        changed = False
        if current is not LockMode.EXCLUSIVE:
            granted = mode if current is None else (
                LockMode.EXCLUSIVE if mode is LockMode.EXCLUSIVE else current
            )
            changed = granted is not current
            holders[transaction_id] = granted
        self._held.setdefault(transaction_id, set()).add(object_name)
        return changed

    # ------------------------------------------------------------------
    # Protocol decisions
    # ------------------------------------------------------------------
    def _covered(self, held: Optional[LockMode], mode: LockMode) -> bool:
        """True when a held lock already licenses a request of ``mode``."""
        return held is LockMode.EXCLUSIVE or (held is not None and mode is LockMode.SHARED)

    def admit(
        self,
        transaction: Transaction,
        manager: "ObjectManager",
        handle: RequestHandle,
        from_queue: bool,
    ) -> None:
        scheduler = self.scheduler
        if from_queue:
            scheduler.graph.remove_edges_from(transaction.tid, EdgeKind.WAIT_FOR)
        mode = self.required_mode(manager, handle.invocation)
        held = self._locks.get(manager.name, {}).get(transaction.tid)
        if not self._covered(held, mode):
            conflicting = self._lock_conflicts(manager, mode, transaction.tid)
            # Fair FIFO queueing applies only to *new* lock requests.  An
            # upgrade (shared held, exclusive needed) waits on the other
            # holders alone: queueing it behind requests that are themselves
            # waiting on its shared lock would manufacture a deadlock.
            if held is None and scheduler.fair and not from_queue:
                conflicting |= self._queued_conflicts(manager, mode, transaction.tid)
            if conflicting:
                scheduler.block_request(transaction, manager, handle, conflicting)
                return
        changed = self._acquire(manager.name, transaction.tid, mode)
        scheduler.execute_operation(transaction, manager, handle, from_queue=from_queue)
        # Waiters' conflict sets can only change when the lock table did, so
        # operations under an already-held covering lock skip the refresh.
        # (after_execute stays a no-op for this backend: the decision needs
        # the acquire outcome, which lives in this frame — instance state
        # would be clobbered if a listener ever re-entered the scheduler.)
        if changed:
            self._refresh_waiters(manager)

    def compile_submit(self) -> Optional[FusedSubmit]:
        """Fuse submit → lock check → execute for the uncontended case.

        The fast path applies when the object has no queued requests and the
        needed lock is either already covered or free of conflicting holders;
        the lock table update still goes through :meth:`_acquire`, and the
        waiter refresh is skipped because an empty queue has no edges to
        re-point.  Everything else bails out to :meth:`admit`, whose lock
        check is pure up to that point — the fallback is bit-identical.
        """
        if type(self) is not TwoPhaseLockingBackend:
            return None
        scheduler = self.scheduler
        backend = self
        admit = self.admit
        active = TransactionStatus.ACTIVE
        exclusive = LockMode.EXCLUSIVE
        shared = LockMode.SHARED
        pool_requests = scheduler.pool_requests
        handle_pool = scheduler.handle_pool

        def fused_submit(
            transaction_id: int, object_name: str, invocation: Invocation
        ) -> RequestHandle:
            try:
                transaction = scheduler.transactions[transaction_id]
            except KeyError:
                raise TransactionStateError(
                    f"unknown transaction {transaction_id}"
                ) from None
            if transaction.status is not active:
                transaction.require(active)
            try:
                manager = scheduler.objects[object_name]
            except KeyError:
                raise UnknownObjectError(object_name) from None
            if pool_requests and handle_pool.free:
                # Pooled handle: reinitialised field by field, so the fast
                # path's observable state matches a fresh construction.
                handle_pool.reused += 1
                handle = handle_pool.free.pop()
                handle.transaction_id = transaction_id
                handle.object_name = object_name
                handle.invocation = invocation
                handle.status = None
            else:
                handle_pool.created += pool_requests
                handle = RequestHandle(
                    transaction_id=transaction_id,
                    object_name=object_name,
                    invocation=invocation,
                )
            if manager.blocked or (
                manager.materialize_state and manager._op_functions is None
            ):
                admit(transaction, manager, handle, False)
                if pool_requests:
                    handles = transaction.handles
                    if handles is None:
                        handles = transaction.handles = []
                    handles.append(handle)
                return handle
            mode = backend.required_mode(manager, invocation)
            try:
                holders = backend._locks[object_name]
            except KeyError:
                holders = None
                held = None
            else:
                held = holders.get(transaction_id)
            if not (held is exclusive or (held is not None and mode is shared)):
                if holders:
                    for tid, granted in holders.items():
                        if tid != transaction_id and (
                            mode is exclusive or granted is exclusive
                        ):
                            admit(transaction, manager, handle, False)
                            if pool_requests:
                                handles = transaction.handles
                                if handles is None:
                                    handles = transaction.handles = []
                                handles.append(handle)
                            return handle
            changed = backend._acquire(object_name, transaction_id, mode)
            if (
                _grant_fused(
                    scheduler,
                    transaction,
                    manager,
                    handle,
                    invocation,
                    transaction_id,
                    None,
                )
                is None
            ):
                # The spec cannot be direct-applied: finish through the
                # general path (the second _acquire is a no-op).
                admit(transaction, manager, handle, False)
                if pool_requests:
                    handles = transaction.handles
                    if handles is None:
                        handles = transaction.handles = []
                    handles.append(handle)
                return handle
            if changed:
                backend._refresh_waiters(manager)
            if pool_requests:
                handles = transaction.handles
                if handles is None:
                    handles = transaction.handles = []
                handles.append(handle)
            return handle

        return fused_submit

    def _refresh_waiters(self, manager: "ObjectManager") -> None:
        """Re-point waiters' wait-for edges after a lock grant or upgrade.

        A newly granted (or upgraded) lock may add the grantee to the conflict
        set of requests already waiting on the object; their wait-for edges
        must reflect that or a deadlock could go undetected.
        """
        scheduler = self.scheduler
        restart = True
        while restart:
            restart = False
            # Iterate the live queue so ``upto`` always describes the current
            # FIFO order.  The only mutating outcome is an abort (refresh
            # returns True), whose termination cascade may dequeue or grant
            # other waiters — restart the scan from a consistent view then.
            for index, pending in enumerate(manager.blocked):
                waiter = scheduler.transactions.get(pending.transaction_id)
                if waiter is None or waiter.status is not TransactionStatus.BLOCKED:
                    continue
                conflicting = self.blocking_conflicts(
                    manager, pending.invocation, pending.transaction_id, upto=index
                )
                if scheduler.refresh_wait_edges(waiter, conflicting):
                    restart = True
                    break

    def commit(self, transaction: Transaction) -> TransactionStatus:
        # Strict 2PL: all locks were held to this point, so the commit is
        # always immediate — pseudo-commit never arises.
        self.scheduler.finalize_commit(transaction)
        return TransactionStatus.COMMITTED

    def on_terminate(self, transaction: Transaction, retry_objects: Set[str]) -> None:
        held = self._held.pop(transaction.tid, None)
        if held:
            for object_name in held:
                holders = self._locks.get(object_name)
                if holders is not None:
                    holders.pop(transaction.tid, None)
                    if not holders:
                        del self._locks[object_name]
            if self.scheduler._blocked_objects:
                retry_objects = retry_objects | held
        super().on_terminate(transaction, retry_objects)

    def reset(self) -> None:
        self._locks.clear()
        self._held.clear()

    # ------------------------------------------------------------------
    # Retry support
    # ------------------------------------------------------------------
    def blocking_conflicts(
        self,
        manager: "ObjectManager",
        invocation: Invocation,
        transaction_id: int,
        upto: Optional[int] = None,
    ) -> Set[int]:
        mode = self.required_mode(manager, invocation)
        held = self._locks.get(manager.name, {}).get(transaction_id)
        if self._covered(held, mode):
            return set()
        conflicting = self._lock_conflicts(manager, mode, transaction_id)
        if held is None and self.scheduler.fair:
            conflicting |= self._queued_conflicts(manager, mode, transaction_id, upto=upto)
        return conflicting


def make_backend(policy: ConflictPolicy) -> ConcurrencyControlBackend:
    """Construct the backend a :class:`~repro.core.policy.ConflictPolicy` selects."""
    if policy is ConflictPolicy.TWO_PHASE_LOCKING:
        return TwoPhaseLockingBackend()
    return SemanticBackend()
