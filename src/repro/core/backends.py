"""Pluggable concurrency-control backends.

The :class:`~repro.core.scheduler.Scheduler` owns the machinery every
concurrency-control protocol needs — the transaction table, the per-object
managers with their blocked-request queues, the unified dependency graph, the
statistics and listeners — and runs the paper's Figure 2 for every
request: classify it, then block it, or execute it with commit dependencies,
or abort its transaction on a cycle.  A
:class:`ConcurrencyControlBackend` supplies what differs between protocols:

``decide``
    the relation — which transactions a request conflicts with and which it
    is merely recoverable over, given the object's uncommitted operations and
    the requests queued ahead of it.  Pure; the scheduler asks once per
    request, first submit and queue retry alike, and acts on the answer;
``grant``
    protocol state to record when a request is about to execute (the lock
    table), if the protocol keeps any;
``commit``
    whether a completed transaction durably commits at once or must wait
    (pseudo-commit);
``abort``
    abort a transaction (both user-requested and protocol-chosen victims route
    through here);
``on_terminate``
    react to a termination: release protocol state (e.g. locks) and retry
    blocked requests that may now be grantable.

Two backends are provided:

* :class:`SemanticBackend` — the paper's recoverability/commutativity protocol
  (commit dependencies, pseudo-commit), driven by the compatibility tables
  through :class:`~repro.core.policy.ConflictPolicy`;
* :class:`TwoPhaseLockingBackend` — the classical baseline the paper measures
  against: page-level strict two-phase locking with shared/exclusive lock
  modes, FIFO waiting, and deadlock detection via the same wait-for graph.
  Its lock table is one record per touched object (the holders and the
  spec's ``op -> LockMode`` table) plus, per transaction, the list of records
  it holds a lock in.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, AbstractSet, Dict, List, Optional, Set, Tuple

from .compatibility import ConflictClass
from .dependency_graph import EdgeKind
from .errors import ReproError, UnknownOperationError
from .object_manager import ObjectManager
from .policy import ConflictPolicy
from .requests import AbortReason, RequestHandle
from .specification import Event, Invocation, TypeSpecification
from .transaction import Transaction, TransactionStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .scheduler import Scheduler

#: Enum members read per request, bound once (see ``repro.core.scheduler``).
_BLOCKED = TransactionStatus.BLOCKED
_COMMITTED = TransactionStatus.COMMITTED
_WAIT_FOR = EdgeKind.WAIT_FOR
_CONFLICT = ConflictClass.CONFLICT

#: "No transaction": the shared empty half of a decision, so a request that
#: meets nobody — the common case — allocates no sets.
_NOBODY: AbstractSet[int] = frozenset()
#: The whole decision for such a request: it executes, no strings attached.
_FREE: Tuple[AbstractSet[int], AbstractSet[int]] = (_NOBODY, _NOBODY)

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
    :meth:`decide` and :meth:`commit`; every other hook has a default that
    covers the common bookkeeping or does nothing.
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
    def decide(
        self, manager: "ObjectManager", invocation: Invocation, transaction_id: int, ahead: int
    ) -> Tuple[AbstractSet[int], AbstractSet[int]]:
        """The protocol's relation: ``(conflicting, recoverable)``.

        ``conflicting`` are the transactions ``invocation`` must wait for —
        the scheduler blocks the request behind them, or, on a queue retry,
        re-points its wait-for edges at them; ``recoverable`` the ones it may
        execute over at the price of a commit dependency on each.  Both empty
        means it executes freely.  ``ahead`` is how many entries of
        ``manager.blocked`` count as queued in front of the request: the whole
        queue on a fair first submit, the request's own index on a queue
        retry, ``0`` under unfair scheduling.  Must not change any state: the
        scheduler also asks on behalf of requests that stay queued.  The sets
        may be shared; the scheduler only reads them.
        """
        raise NotImplementedError

    def grant(self, manager: "ObjectManager", invocation: Invocation, transaction_id: int) -> bool:
        """Record protocol state for a request that is about to execute.

        Returns ``True`` when that changed what the requests queued on the
        object conflict with; the scheduler then re-points every waiter's
        wait-for edges (:meth:`Scheduler.refresh_waiters`) once the operation
        has executed.  A backend whose :meth:`decide` reads nothing but the
        object manager has nothing to record and leaves this alone.
        """
        return False

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

    # ------------------------------------------------------------------
    # Hooks used by the shared scheduler machinery
    # ------------------------------------------------------------------
    def after_execute(self, manager: "ObjectManager", event: Event) -> None:
        """Blocked-waiter upkeep: called after an operation executed on an
        object whose blocked queue is not empty."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class SemanticBackend(ConcurrencyControlBackend):
    """Recoverability/commutativity concurrency control (Sections 4.2-4.3).

    The relation of Figure 2: a request is classified against the uncommitted
    operations of other transactions by the object's compatibility tables; it
    waits behind conflicts and executes over recoverable operations with a
    commit dependency on each.  Which classifications count as conflicts is
    decided by the scheduler's :class:`~repro.core.policy.ConflictPolicy`.
    A transaction with commit dependencies left pseudo-commits.
    """

    name = "semantic"

    def decide(
        self, manager: "ObjectManager", invocation: Invocation, transaction_id: int, ahead: int
    ) -> Tuple[AbstractSet[int], AbstractSet[int]]:
        if not (manager._op_groups or ahead):
            return _FREE  # an idle object: nothing to classify against
        return manager.classify_request(invocation, transaction_id, self.scheduler.policy, ahead)

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
            if waiter is None or waiter.status is not _BLOCKED:
                continue
            pairwise = manager.classify_pair(pending.invocation, event.invocation, scheduler.policy)
            if pairwise is not _CONFLICT:
                continue
            if scheduler.graph.has_edge(waiter.tid, event.transaction_id, _WAIT_FOR):
                continue
            scheduler.stats.cycle_checks += 1
            waiter.cycle_checks += 1
            if scheduler.graph.creates_cycle(waiter.tid, {event.transaction_id}):
                self.abort(waiter, AbortReason.DEADLOCK)
                continue
            scheduler.graph.add_edge(waiter.tid, event.transaction_id, _WAIT_FOR)
            scheduler.stats.wait_for_edges += 1

    # ------------------------------------------------------------------
    # Commit protocol (Section 4.3)
    # ------------------------------------------------------------------
    def commit(self, transaction: Transaction) -> TransactionStatus:
        scheduler = self.scheduler
        if scheduler.graph.out_degree(transaction.tid) > 0:
            return scheduler.record_pseudo_commit(transaction)
        scheduler.finalize_commit(transaction)
        return _COMMITTED


class LockMode(enum.Enum):
    """Lock modes of the strict-2PL backend."""

    SHARED = "shared"
    EXCLUSIVE = "exclusive"

    def conflicts_with(self, other: "LockMode") -> bool:
        """Two lock requests conflict unless both are shared."""
        return self is LockMode.EXCLUSIVE or other is LockMode.EXCLUSIVE


#: Read by every 2PL decision and grant, bound once like the aliases above.
_SHARED = LockMode.SHARED
_EXCLUSIVE = LockMode.EXCLUSIVE


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
        mode = self[op_name] = _SHARED if read_only else _EXCLUSIVE
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

    The lock table is one :class:`_LockRecord` per object, created when the
    object's first lock is granted and kept — emptied, not deleted — until
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

    def required_mode(self, manager: "ObjectManager", invocation: Invocation) -> LockMode:
        """The lock mode ``invocation`` needs on ``manager``'s object."""
        return self._modes_of(manager.spec)[invocation.op]

    def holders(self, object_name: str) -> Dict[int, LockMode]:
        """Current lock holders of one object (empty when unlocked)."""
        record = self._records.get(object_name)
        return dict(record.holders) if record is not None else {}

    # ------------------------------------------------------------------
    # Protocol decisions
    # ------------------------------------------------------------------
    def decide(
        self, manager: "ObjectManager", invocation: Invocation, transaction_id: int, ahead: int
    ) -> Tuple[AbstractSet[int], AbstractSet[int]]:
        """Who stands in the way of the lock ``invocation`` needs.

        Nobody when a lock the requester already holds covers it.  Otherwise
        the other holders of a conflicting lock plus, for a *new* lock
        request, the owners of conflicting requests among the ``ahead`` queued
        in front.  An upgrade (shared held, exclusive needed) waits on the
        other holders alone: queueing it behind requests that are themselves
        waiting on its shared lock would manufacture a deadlock.  Locks never
        yield a recoverable set.
        """
        record = self._records.get(manager.name)
        if record is None:
            return _FREE  # never locked, so nothing ever queued either
        holders = record.holders
        if not (holders or ahead):
            return _FREE
        modes = record.modes
        mode = modes[invocation.op]
        held = holders.get(transaction_id)
        if held is mode or held is _EXCLUSIVE:
            return _FREE
        queued = manager.blocked[:ahead] if held is None else ()
        if mode is _EXCLUSIVE:
            conflicting = set(holders)
            for pending in queued:
                conflicting.add(pending.transaction_id)
            conflicting.discard(transaction_id)
            return conflicting, _NOBODY
        # A shared request is uncovered only while the requester holds nothing.
        conflicting = set()
        for holder, granted in holders.items():
            if granted is _EXCLUSIVE:
                conflicting.add(holder)
        for pending in queued:
            if (
                pending.transaction_id != transaction_id
                and modes[pending.invocation.op] is _EXCLUSIVE
            ):
                conflicting.add(pending.transaction_id)
        return conflicting, _NOBODY

    def grant(self, manager: "ObjectManager", invocation: Invocation, transaction_id: int) -> bool:
        """Record the lock the request needs unless one it holds covers it.

        A transaction's record list gains the object exactly when its first
        lock there is granted; an upgrade overwrites the mode in place.
        """
        try:
            record = self._records[manager.name]
        except KeyError:
            record = self._records[manager.name] = _LockRecord(
                manager.name, self._modes_of(manager.spec)
            )
        mode = record.modes[invocation.op]
        holders = record.holders
        held = holders.get(transaction_id)
        if held is mode or held is _EXCLUSIVE:
            return False
        holders[transaction_id] = mode
        if held is None:
            held_records = self._held.get(transaction_id)
            if held_records is None:
                self._held[transaction_id] = [record]
            else:
                held_records.append(record)
        return True

    def commit(self, transaction: Transaction) -> TransactionStatus:
        # Strict 2PL: all locks were held to this point, so the commit is
        # always immediate — pseudo-commit never arises.
        self.scheduler.finalize_commit(transaction)
        return _COMMITTED

    def on_terminate(self, transaction: Transaction, retry_objects: Set[str]) -> None:
        transaction_id = transaction.tid
        for record in self._held.pop(transaction_id, ()):
            del record.holders[transaction_id]
            if record.name not in retry_objects:
                # A lock without a visit: the operation raised after the grant.
                retry_objects = retry_objects | {record.name}
        super().on_terminate(transaction, retry_objects)

    def reset(self) -> None:
        # Dropping the records (not just emptying their holders) lets an
        # object that is re-registered under another spec start clean.
        self._records.clear()
        self._held.clear()
        self._mode_tables.clear()


def make_backend(policy: ConflictPolicy) -> ConcurrencyControlBackend:
    """Construct the backend a :class:`~repro.core.policy.ConflictPolicy` selects."""
    if policy is ConflictPolicy.TWO_PHASE_LOCKING:
        return TwoPhaseLockingBackend()
    return SemanticBackend()
