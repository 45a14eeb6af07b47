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
  Its lock table is one record per touched object (the holders and the
  spec's ``op -> LockMode`` table) plus, per transaction, the list of records
  it holds a lock in.

Every grant — first submit or queue grant, either backend — executes through
one kernel, :meth:`Scheduler.execute_operation
<repro.core.scheduler.Scheduler.execute_operation>`.  A first submit is
decided by the backend's ``compile_submit`` closure: the semantic one decides
every request itself, in one scan; the 2PL one decides the uncontended case
and leaves the rest to :meth:`~ConcurrencyControlBackend.admit`.  ``admit`` is
also the path of a request leaving a blocked queue and of a scheduler built
without fusion, and ends in the same kernel.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, AbstractSet, Callable, Dict, List, Optional, Set

from .compatibility import ConflictClass
from .dependency_graph import EdgeKind
from .errors import ReproError, TransactionStateError, UnknownObjectError, UnknownOperationError
from .object_manager import ObjectManager, PendingRequest
from .policy import ConflictPolicy
from .requests import AbortReason, RequestHandle
from .specification import Event, Invocation, TypeSpecification
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
        ``Scheduler.submit`` that decides requests inline and executes them
        through ``Scheduler.execute_operation`` (whatever it does not decide
        it hands to :meth:`admit`); returning ``None`` keeps the general
        path — the default, and what subclasses of the built-in backends get
        unless they opt in.
        """
        return None

    # ------------------------------------------------------------------
    # Hooks used by the shared scheduler machinery
    # ------------------------------------------------------------------
    def after_execute(self, manager: "ObjectManager", event: Event) -> None:
        """Blocked-waiter upkeep: called after an operation executed on an
        object whose blocked queue is not empty."""

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
        """Figure 2 over the manager's classification methods: the path of a
        request leaving a blocked queue, of a scheduler built without fusion
        and of subclasses.  A fused first submit makes the same decision in
        its own frame (:meth:`compile_submit`) and never comes here."""
        scheduler = self.scheduler
        invocation = handle.invocation
        if from_queue:
            # The request is leaving the blocked queue: its wait-for edges
            # described the old conflict set and must not linger (they would
            # cause spurious deadlock aborts later).
            scheduler.graph.remove_edges_from(transaction.tid, EdgeKind.WAIT_FOR)
        classification = manager.classify_request(invocation, transaction.tid, scheduler.policy)
        conflicting = classification.conflicting
        if scheduler.fair and not from_queue:
            conflicting |= manager.blocked_conflicts(invocation, transaction.tid, scheduler.policy)
        if conflicting:
            scheduler.block_request(transaction, manager, handle, conflicting)
        elif not classification.recoverable or self._depend(
            transaction, handle, classification.recoverable
        ):
            scheduler.execute_operation(transaction, manager, handle, from_queue=from_queue)

    def _depend(
        self, transaction: Transaction, handle: RequestHandle, recoverable: Set[int]
    ) -> bool:
        """Commit-dependency edges to ``recoverable``; ``False`` (and the
        transaction aborted) when they would close a cycle."""
        scheduler = self.scheduler
        scheduler.stats.cycle_checks += 1
        transaction.cycle_checks += 1
        if scheduler.graph.creates_cycle(transaction.tid, recoverable):
            self.abort(transaction, AbortReason.DEPENDENCY_CYCLE, handle)
            return False
        scheduler.graph.add_edges(transaction.tid, recoverable, EdgeKind.COMMIT_DEPENDENCY)
        scheduler.stats.commit_dependency_edges += len(recoverable)
        return True

    def compile_submit(self) -> Optional[FusedSubmit]:
        """Fuse submit → Figure 2 admission → execution into one frame.

        The compiled closure replays ``Scheduler.submit``'s exact lookup and
        error sequence and then decides the request itself, in one pass: one
        loop over the manager's operation groups collects the owners of
        conflicting and of recoverable uncommitted operations (the compiled
        tables inline; ``classify_pair`` for a fallback group or an operation
        outside the tables), one loop over the blocked queue — only when it
        is non-empty and scheduling is fair — adds the owners of conflicting
        requests queued ahead.  The request then blocks, or takes its commit
        dependencies and executes through the kernel with the group key the
        scan already derived.  Nothing is handed to :meth:`admit`.
        """
        if type(self) is not SemanticBackend:
            # Subclasses may override admission; they must opt in explicitly.
            return None
        scheduler = self.scheduler
        depend = self._depend
        execute = scheduler.execute_operation
        active = TransactionStatus.ACTIVE
        commutative = ConflictClass.COMMUTATIVE
        conflict = ConflictClass.CONFLICT
        nobody: AbstractSet[int] = frozenset()  # an idle object allocates no sets
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
            try:
                op_id = manager._op_index[invocation.op]
            except KeyError:
                op_id = -1  # outside the tables: classify_pair, pair by pair
            if manager._param_is_args:
                param = invocation.args
            else:
                param = manager.spec.conflict_parameter(invocation)
            conflicting = recoverable = nobody
            groups = manager._op_groups
            queue = manager.blocked
            if groups or queue:
                conflicting, recoverable = set(), set()
                policy = scheduler.policy
                if policy is manager._compiled_policy:
                    tables = manager._compiled_tables
                else:
                    tables = manager._tables_for(policy)
                assert tables is not None
                unconditional_table = tables[0]
                base = op_id * manager._n_ops
                for group in groups.values():
                    owners = group.owners
                    if len(owners) == 1 and transaction_id in owners:
                        continue
                    if op_id < 0 or group.op_id < 0:
                        pairwise = manager.classify_pair(invocation, group.invocation, policy)
                    else:
                        index = base + group.op_id
                        pairwise = unconditional_table[index]
                        if pairwise is None:
                            pairwise = tables[1 if param == group.param else 2][index]
                    if pairwise is not commutative:
                        others = conflicting if pairwise is conflict else recoverable
                        others.update(owners)
                        if transaction_id in owners:
                            # A transaction never conflicts with itself.
                            others.discard(transaction_id)
                if queue and scheduler.fair:
                    for pending in queue:
                        if pending.transaction_id == transaction_id:
                            continue
                        if op_id < 0 or pending.op_id < 0:
                            pairwise = manager.classify_pair(
                                invocation, pending.invocation, policy
                            )
                        else:
                            index = base + pending.op_id
                            pairwise = unconditional_table[index]
                            if pairwise is None:
                                pairwise = tables[1 if param == pending.param else 2][index]
                        if pairwise is conflict:
                            conflicting.add(pending.transaction_id)
            if conflicting:
                scheduler.block_request(transaction, manager, handle, conflicting)
            elif not recoverable or depend(transaction, handle, recoverable):
                execute(
                    transaction, manager, handle, False, (op_id, param) if op_id >= 0 else None
                )
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


class _ModeTable(Dict[str, LockMode]):
    """One spec's ``op -> LockMode`` table, filled as operation names are seen.

    A miss asks ``spec.operation(name)`` — so a spec that overrides the lookup
    gets the modes its override reports — and remembers the answer; a name the
    spec does not know takes the exclusive lock.
    """

    __slots__ = ("spec",)

    def __init__(self, spec: TypeSpecification) -> None:
        self.spec = spec

    def __missing__(self, op_name: str) -> LockMode:
        try:
            read_only = self.spec.operation(op_name).is_read_only
        except UnknownOperationError:
            read_only = False
        mode = self[op_name] = LockMode.SHARED if read_only else LockMode.EXCLUSIVE
        return mode


class _LockRecord:
    """The lock of one object: who holds it, and what each operation needs
    (``modes`` is shared by every record over the same spec)."""

    __slots__ = ("name", "holders", "modes")

    def __init__(self, name: str, modes: _ModeTable) -> None:
        self.name = name
        #: transaction id -> granted mode
        self.holders: Dict[int, LockMode] = {}
        self.modes = modes


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

    The lock table is one :class:`_LockRecord` per object, created on the
    object's first lock request and kept — emptied, not deleted — until
    :meth:`reset`, so every decision reaches an object's holders and mode
    table with one lookup.  A transaction's locks are the records listed
    under its id: a record is appended exactly when the transaction's first
    lock on the object is granted (a covered request and an upgrade touch
    nothing), so releasing is one ``del`` per entry.
    """

    name = "two-phase-locking"

    def __init__(self) -> None:
        super().__init__()
        #: object name -> lock record
        self._records: Dict[str, _LockRecord] = {}
        #: transaction id -> records in which it holds a lock
        self._held: Dict[int, List[_LockRecord]] = {}
        #: id(spec) -> its mode table (which holds the spec, so the id cannot
        #: be reused while the table is cached)
        self._mode_tables: Dict[int, _ModeTable] = {}

    # ------------------------------------------------------------------
    # Lock-table helpers
    # ------------------------------------------------------------------
    def _modes_of(self, spec: TypeSpecification) -> _ModeTable:
        try:
            return self._mode_tables[id(spec)]
        except KeyError:
            modes = self._mode_tables[id(spec)] = _ModeTable(spec)
            return modes

    def _new_record(self, manager: "ObjectManager") -> _LockRecord:
        record = self._records[manager.name] = _LockRecord(
            manager.name, self._modes_of(manager.spec)
        )
        return record

    def required_mode(self, manager: "ObjectManager", invocation: Invocation) -> LockMode:
        """The lock mode ``invocation`` needs on ``manager``'s object."""
        return self._modes_of(manager.spec)[invocation.op]

    def holders(self, object_name: str) -> Dict[int, LockMode]:
        """Current lock holders of one object (empty when unlocked)."""
        record = self._records.get(object_name)
        return dict(record.holders) if record is not None else {}

    @staticmethod
    def _conflicts(
        record: _LockRecord,
        queue: List[PendingRequest],
        queued: int,
        mode: LockMode,
        transaction_id: int,
    ) -> Set[int]:
        """Who stands in the way of a ``mode`` request that no held lock covers.

        The other holders of a conflicting lock, plus the owners of
        conflicting requests among the first ``queued`` entries of ``queue``.
        """
        conflicting: Set[int] = set()
        if mode is LockMode.EXCLUSIVE:
            for holder in record.holders:
                if holder != transaction_id:
                    conflicting.add(holder)
            for position in range(queued):
                owner = queue[position].transaction_id
                if owner != transaction_id:
                    conflicting.add(owner)
            return conflicting
        # A shared request is uncovered only while the requester holds nothing.
        for holder, granted in record.holders.items():
            if granted is LockMode.EXCLUSIVE:
                conflicting.add(holder)
        modes = record.modes
        for position in range(queued):
            pending = queue[position]
            if (
                pending.transaction_id != transaction_id
                and modes[pending.invocation.op] is LockMode.EXCLUSIVE
            ):
                conflicting.add(pending.transaction_id)
        return conflicting

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
        scheduler = self.scheduler
        transaction_id = transaction.tid
        if from_queue:
            scheduler.graph.remove_edges_from(transaction_id, EdgeKind.WAIT_FOR)
        try:
            record = self._records[manager.name]
        except KeyError:
            record = self._new_record(manager)
        mode = record.modes[handle.invocation.op]
        holders = record.holders
        held = holders.get(transaction_id)
        acquire = held is not LockMode.EXCLUSIVE and (held is None or mode is LockMode.EXCLUSIVE)
        if acquire:
            # Fair FIFO queueing applies only to *new* lock requests.  An
            # upgrade (shared held, exclusive needed) waits on the other
            # holders alone: queueing it behind requests that are themselves
            # waiting on its shared lock would manufacture a deadlock.
            queue = manager.blocked
            fifo = held is None and scheduler.fair and not from_queue
            conflicting = self._conflicts(
                record, queue, len(queue) if fifo else 0, mode, transaction_id
            )
            if conflicting:
                scheduler.block_request(transaction, manager, handle, conflicting)
                return
            holders[transaction_id] = mode
            if held is None:
                self._held.setdefault(transaction_id, []).append(record)
        scheduler.execute_operation(transaction, manager, handle, from_queue)
        # Waiters' conflict sets can only change when the lock table did, and
        # only a non-empty queue has waiters.  (after_execute stays a no-op
        # for this backend: the decision needs the acquire outcome, which
        # lives in this frame — instance state would be clobbered if a
        # listener ever re-entered the scheduler.)
        if acquire and manager.blocked:
            self._refresh_waiters(manager)

    def compile_submit(self) -> Optional[FusedSubmit]:
        """Fuse submit → lock check → execute for the uncontended case.

        The closure decides inline when the object has no queued requests and
        the needed lock is either already covered (nothing is touched) or
        free of conflicting holders (the lock record and the transaction's
        held list are updated in this frame), then calls the execution
        kernel.  With an empty queue there are no waiters to refresh.
        Everything else is :meth:`admit`'s, whose lock check starts from the
        same untouched record.
        """
        if type(self) is not TwoPhaseLockingBackend:
            return None
        scheduler = self.scheduler
        admit = self.admit
        execute = scheduler.execute_operation
        records = self._records
        new_record = self._new_record
        held_records = self._held
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
            grant = not manager.blocked
            if grant:
                try:
                    record = records[object_name]
                except KeyError:
                    record = new_record(manager)
                mode = record.modes[invocation.op]
                holders = record.holders
                held = holders.get(transaction_id)
                if held is not exclusive and (held is None or mode is exclusive):
                    if mode is shared:
                        for granted in holders.values():
                            if granted is exclusive:
                                grant = False
                                break
                    elif len(holders) > (held is not None):
                        # Somebody besides the requester holds the lock.
                        grant = False
                    if grant:
                        holders[transaction_id] = mode
                        if held is None:
                            try:
                                held_records[transaction_id].append(record)
                            except KeyError:
                                held_records[transaction_id] = [record]
            if grant:
                execute(transaction, manager, handle, False)
            else:
                admit(transaction, manager, handle, False)
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
        transaction_id = transaction.tid
        for record in self._held.pop(transaction_id, ()):
            del record.holders[transaction_id]
            if record.name not in retry_objects:
                # A lock without a visit: the operation raised after the grant.
                retry_objects = retry_objects | {record.name}
        super().on_terminate(transaction, retry_objects)

    def reset(self) -> None:
        # In place: the fused closure captured both tables.  Dropping the
        # records (not just emptying their holders) lets an object that is
        # re-registered under another spec start clean.
        self._records.clear()
        self._held.clear()
        self._mode_tables.clear()

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
        try:
            record = self._records[manager.name]
        except KeyError:
            record = self._new_record(manager)
        mode = record.modes[invocation.op]
        held = record.holders.get(transaction_id)
        if held is LockMode.EXCLUSIVE or (held is not None and mode is LockMode.SHARED):
            return set()
        queue = manager.blocked
        queued = 0
        if held is None and self.scheduler.fair:
            queued = len(queue)
            if upto is not None and upto < queued:
                queued = upto
        return self._conflicts(record, queue, queued, mode, transaction_id)


def make_backend(policy: ConflictPolicy) -> ConcurrencyControlBackend:
    """Construct the backend a :class:`~repro.core.policy.ConflictPolicy` selects."""
    if policy is ConflictPolicy.TWO_PHASE_LOCKING:
        return TwoPhaseLockingBackend()
    return SemanticBackend()
