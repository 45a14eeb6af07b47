"""Per-object managers: execution logs, conflict classification, and state.

The paper assumes "the existence of an object manager for each object" that
"maintains an execution log of uncommitted operations on that object" and
uses the compatibility table to decide, at run time, how a requested operation
relates to the uncommitted operations already executed (Section 4).

This module implements that manager.  State handling follows the paper's own
abort semantics (Definition 4): the *committed* state of the object is kept
separately from the log of uncommitted operations, and the visible state is
the committed state with all uncommitted operations replayed over it.  Undoing
a transaction is then literally "its operations are deleted from the log",
which is correct for any sound log and needs no type-specific undo code.
This is the *intentions-list* view of recovery (Section 4.4): commit folds
the log into the committed state, abort deletes from it.
The log is two indexes — each transaction's events, and per distinct
(operation, conflict parameter) the live operations per owner — from which
``uncommitted``, the log in execution order, is derived.  A copy with no
uncommitted operation holds no log: both indexes are then one shared,
read-only empty mapping, and a copy's first event allocates its own.
:meth:`ObjectManager.execute` is the only code that applies an operation and
logs its event.  Real states go through the type specification alone: the
manager keeps ``current_state`` equal to ``committed_state`` with
``uncommitted`` folded over it by ``spec.next_state``.  A transaction that
owns the whole log commits by promoting the visible state and aborts by
falling back to the committed one; otherwise removal folds the removed
operations into the committed state on commit and refolds the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, cast

from .compatibility import CompatibilitySpec, ConflictClass
from .policy import ConflictPolicy, effective_class
from .specification import Event, Invocation, TypeSpecification, _tuple_new

#: One compiled policy table: ``(unconditional, same_param, diff_param)``
#: flat arrays indexed by ``requested_id * n_ops + executed_id``.  The
#: ``unconditional`` entry is the :class:`ConflictClass` when the pair's
#: classification does not depend on parameters (the overwhelmingly common
#: case), else ``None`` — then the parameter comparison picks between the
#: ``same_param`` and ``diff_param`` arrays (the paper's Yes-SP / Yes-DP
#: qualifiers).  A table without such qualifiers compiles to one array
#: three times.
_CompiledTables = Tuple[
    Tuple[Optional[ConflictClass], ...],
    Tuple[ConflictClass, ...],
    Tuple[ConflictClass, ...],
]

#: Bound once for the classification loops: an attribute load on an ``Enum``
#: class costs CPython 3.11 about 100 ns, a module global about 3.
_COMMUTATIVE = ConflictClass.COMMUTATIVE
_CONFLICT = ConflictClass.CONFLICT

#: Sort key of the derived ``uncommitted`` log.
_SEQUENCE = attrgetter("sequence")

#: The log of every idle copy: one empty mapping, read-only so that a write
#: that forgets to allocate fails loudly, typed as a dict for the readers.
_NO_LOG: Dict[Any, Any] = cast(Dict[Any, Any], MappingProxyType({}))

__all__ = ["PendingRequest", "ObjectManager"]


@dataclass(slots=True)
class PendingRequest:
    """A blocked operation request queued at an object manager.

    ``payload`` is opaque to the manager; the scheduler stores its
    :class:`~repro.core.scheduler.RequestHandle` there so it can publish the
    result when the request is eventually granted.  ``op_id`` and ``param``
    are the manager-interned identity of the invocation, stamped once by
    :meth:`ObjectManager.enqueue_blocked` so queue scans never re-derive them
    (``op_id == -1`` marks an invocation outside the compiled tables).
    """

    transaction_id: int
    invocation: Invocation
    payload: Any = None
    op_id: int = -1
    param: Any = None


class ObjectManager:
    """Manager of a single shared object.

    The uncommitted log is ``_events_by_tid`` plus ``_op_groups``, which
    maps each interned ``(op id, conflict parameter)`` to ``{transaction id:
    live operations}`` — all classification reads, so it touches each
    *distinct* operation once.  An invocation outside the tables or with an
    unhashable parameter gets a group of its own, keyed ``(-1, id(event))``
    (the event stays in ``_events_by_tid`` while the group lives).
    ``uncommitted`` is derived: the events in ``sequence`` order.  An idle
    copy — none built yet, or its last transaction gone — holds no log: both
    indexes are the shared read-only ``_NO_LOG``, and ``execute`` allocates
    them on the copy's first event.

    A manager owns only its states, its blocked queue and the log indexes
    above.  The operation index and the compiled tables are references to
    what its compatibility spec holds, so the thousands of copies a
    multi-site simulation builds share one set per table.

    Parameters
    ----------
    name:
        The object's name (unique within a scheduler).
    spec:
        The object's :class:`~repro.core.specification.TypeSpecification`.
    compatibility:
        The compatibility tables to use.  Defaults to the type's declared
        tables; the simulation workloads pass randomly generated tables here.
    initial_state:
        Starting committed state; defaults to ``spec.initial_state()``.
    materialize_state:
        When ``False`` the manager skips applying operations to real states
        and records ``None`` return values.  The simulator's workloads all
        run this way: the abstract-data-type operations have no executable
        semantics (their behaviour is fully described by the random table),
        and no simulation reads a read/write page's value.
    """

    __slots__ = (
        "name", "spec", "compatibility", "materialize_state",
        "committed_state", "current_state", "_initial_committed",
        "blocked", "_events_by_tid", "_op_groups",
        "_op_index", "_n_ops", "_param_is_args",
        "_compiled_policy", "_compiled_tables",
    )

    def __init__(
        self,
        name: str,
        spec: TypeSpecification,
        compatibility: Optional[CompatibilitySpec] = None,
        initial_state: Any = None,
        materialize_state: bool = True,
    ):
        self.name = name
        self.spec = spec
        if compatibility is None:
            compatibility = spec.compatibility()
        self.compatibility = compatibility
        self.materialize_state = materialize_state
        if initial_state is None:
            initial_state = spec.initial_state()
        self.committed_state: Any = initial_state
        self.current_state: Any = initial_state
        #: The committed state this manager started from.  ``reset()``
        #: restores it by reference: states are treated as immutable by the
        #: whole framework (operations return new states), so sharing is safe.
        self._initial_committed: Any = initial_state
        #: FIFO queue of blocked requests.
        self.blocked: List[PendingRequest] = []
        #: Uncommitted events per transaction, each list in execution order.
        #: Operations of pseudo-committed transactions stay here until the
        #: durable commit.  ``_NO_LOG`` while the copy is idle.
        self._events_by_tid: Dict[int, List[Event]] = _NO_LOG
        #: Owner counts per (op id, conflict parameter) group; kept in step
        #: with ``_events_by_tid`` by ``execute`` and removal.
        self._op_groups: Dict[Tuple[int, Any], Dict[int, int]] = _NO_LOG
        # Everything below is shared with every other manager over the same
        # compatibility spec; a manager only holds references.
        #: Interned operation ids: table operations in declared order.  The
        #: compiled per-policy tables are flat arrays indexed by
        #: ``requested_id * n + executed_id`` — classification is two int
        #: index operations instead of tuple-key construction + dict probes.
        self._op_index: Dict[str, int] = compatibility.op_index
        self._n_ops = len(compatibility.operations)
        #: True when the spec uses the default conflict parameter (the raw
        #: argument tuple) — lets the hot path skip a method call per probe.
        self._param_is_args = (
            type(spec).conflict_parameter is TypeSpecification.conflict_parameter
        )
        #: The compiled tables of the policy last asked for.  A run exercises
        #: a single policy, so the hot paths check ``_compiled_policy`` by
        #: identity (no enum hash) before falling back to the spec's
        #: ``compiled_tables``, which every manager over the spec shares.
        #: Tables are fixed once compiled, so entries never go stale.
        self._compiled_policy: Optional[ConflictPolicy] = None
        self._compiled_tables: Optional[_CompiledTables] = None

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _compile_policy(self, policy: ConflictPolicy) -> _CompiledTables:
        """Precompile both relation tables into flat per-policy arrays.

        Every (requested, executed) operation pair is resolved through the
        paper's Figure-2 algorithm (commutativity first, then recoverability)
        for both the same-parameter and different-parameter case, then mapped
        through the policy; parameter-independent results land in the
        ``unconditional`` array so the fast path never compares parameters.
        """
        commutativity = self.compatibility.commutativity
        recoverability = self.compatibility.recoverability
        operations = self.compatibility.operations
        count = len(operations) * len(operations)
        unconditional: List[Optional[ConflictClass]] = [None] * count
        same_param: List[ConflictClass] = [ConflictClass.CONFLICT] * count
        diff_param: List[ConflictClass] = [ConflictClass.CONFLICT] * count
        index = 0
        for requested_op in operations:
            for executed_op in operations:
                commute = commutativity.answer(requested_op, executed_op)
                recover = recoverability.answer(requested_op, executed_op)
                if commute.holds(True):
                    same_case = ConflictClass.COMMUTATIVE
                elif recover.holds(True):
                    same_case = ConflictClass.RECOVERABLE
                else:
                    same_case = ConflictClass.CONFLICT
                if commute.holds(False):
                    diff_case = ConflictClass.COMMUTATIVE
                elif recover.holds(False):
                    diff_case = ConflictClass.RECOVERABLE
                else:
                    diff_case = ConflictClass.CONFLICT
                same_case = effective_class(policy, same_case)
                diff_case = effective_class(policy, diff_case)
                same_param[index] = same_case
                diff_param[index] = diff_case
                if same_case is diff_case:
                    unconditional[index] = same_case
                index += 1
        if same_param == diff_param:
            # No entry depends on parameters (every random table and the
            # page table): the three arrays are equal, so keep one.
            shared = tuple(same_param)
            compiled: _CompiledTables = (shared, shared, shared)
        else:
            compiled = (tuple(unconditional), tuple(same_param), tuple(diff_param))
        self.compatibility.compiled_tables[policy] = compiled
        return compiled

    def _tables_for(self, policy: ConflictPolicy) -> _CompiledTables:
        """The compiled tables of ``policy`` (identity-checked fast path)."""
        if policy is self._compiled_policy:
            tables = self._compiled_tables
            assert tables is not None
            return tables
        tables = self.compatibility.compiled_tables.get(policy)
        if tables is None:
            tables = self._compile_policy(policy)
        self._compiled_policy = policy
        self._compiled_tables = tables
        return tables

    def _conflict_param(self, invocation: Invocation) -> Any:
        """The invocation's conflict parameter (same/different-parameter key)."""
        if self._param_is_args:
            return invocation.args
        return self.spec.conflict_parameter(invocation)

    def classify_pair(
        self, requested: Invocation, executed: Invocation, policy: ConflictPolicy
    ) -> ConflictClass:
        """Classify one requested/executed invocation pair under ``policy``."""
        op_index = self._op_index
        requested_id = op_index.get(requested.op)
        executed_id = op_index.get(executed.op)
        if requested_id is None or executed_id is None:
            # Operation outside the declared tables (test-only territory):
            # resolve through the tables' default answers directly.
            pairwise = self.compatibility.classify(requested, executed, self.spec)
            return effective_class(policy, pairwise)
        if policy is self._compiled_policy:
            tables = self._compiled_tables
        else:
            tables = self._tables_for(policy)
        index = requested_id * self._n_ops + executed_id
        unconditional = tables[0][index]
        if unconditional is not None:
            return unconditional
        if self._conflict_param(requested) == self._conflict_param(executed):
            return tables[1][index]
        return tables[2][index]

    def classify_request(
        self, invocation: Invocation, transaction_id: int, policy: ConflictPolicy, ahead: int = 0
    ) -> Tuple[Set[int], Set[int]]:
        """Figure 2's classification: ``(conflicting, recoverable)``.

        The still-live *other* transactions (a transaction never conflicts
        with itself) whose uncommitted operations the request does not commute
        with: a transaction is in ``conflicting`` if any of its operations is
        a (policy-effective) conflict with the request, otherwise in
        ``recoverable`` if any of them requires a commit dependency, and in
        neither if all of them commute.  ``conflicting`` also takes the owners
        of conflicting requests among the first ``ahead`` entries of the
        blocked queue — fair scheduling: a request must not overtake a queued
        request it conflicts with.  One loop over the operation groups, one
        over the queue prefix, the compiled tables read inline
        (``classify_pair`` for a fallback group or an operation outside the
        tables).
        """
        try:
            op_id = self._op_index[invocation.op]
        except KeyError:
            op_id = -1  # outside the tables: classify_pair, pair by pair
        if self._param_is_args:
            param = invocation.args
        else:
            param = self.spec.conflict_parameter(invocation)
        if policy is self._compiled_policy:
            tables = self._compiled_tables
        else:
            tables = self._tables_for(policy)
        assert tables is not None
        unconditional_table = tables[0]
        base = op_id * self._n_ops
        conflicting: Set[int] = set()
        recoverable: Set[int] = set()
        for (group_op, group_param), owners in self._op_groups.items():
            if len(owners) == 1 and transaction_id in owners:
                continue
            if op_id < 0 or group_op < 0:
                executed = self._representative((group_op, group_param))
                pairwise = self.classify_pair(invocation, executed, policy)
            else:
                index = base + group_op
                pairwise = unconditional_table[index]
                if pairwise is None:
                    pairwise = tables[1 if param == group_param else 2][index]
            if pairwise is not _COMMUTATIVE:
                others = conflicting if pairwise is _CONFLICT else recoverable
                others.update(owners)
                if transaction_id in owners:
                    others.discard(transaction_id)
        if ahead:
            for pending in self.blocked[:ahead]:
                if pending.transaction_id == transaction_id:
                    continue
                if op_id < 0 or pending.op_id < 0:
                    pairwise = self.classify_pair(invocation, pending.invocation, policy)
                else:
                    index = base + pending.op_id
                    pairwise = unconditional_table[index]
                    if pairwise is None:
                        pairwise = tables[1 if param == pending.param else 2][index]
                if pairwise is _CONFLICT:
                    conflicting.add(pending.transaction_id)
        if conflicting:
            recoverable -= conflicting
        return conflicting, recoverable

    def _representative(self, key: Tuple[int, Any]) -> Invocation:
        """An invocation of group ``key`` (all its members classify alike),
        for the slow path of a pair outside the compiled tables."""
        by_tid = self._events_by_tid
        events = (e for tid in self._op_groups[key] for e in by_tid[tid])
        if key[0] < 0:  # a fallback group: the one event keyed by its id
            return next(e.invocation for e in events if id(e) == key[1])
        return next(e.invocation for e in events if self._group_key(e.invocation) == key)

    # ------------------------------------------------------------------
    # Execution and the uncommitted log
    # ------------------------------------------------------------------
    def execute(self, invocation: Invocation, transaction_id: int, sequence: int) -> Event:
        """Execute an admitted invocation against the visible state.

        The one execution kernel: every grant the scheduler makes runs it.
        On a materialized object it applies the operation with
        ``spec.apply``, which raises for an unknown operation or a return
        that is not an :class:`OperationResult` before anything here has
        changed; an unmaterialized object records ``None``.  The event goes
        into the log: its transaction's events and its group's owner count.
        Removal never needs the group key again: it pops the transaction from
        every group's owners.  An idle copy's first event allocates the log.
        """
        if self.materialize_state:
            result = self.spec.apply(self.current_state, invocation)
            self.current_state = result.state
            value = result.value
        else:
            value = None
        event = _tuple_new(Event, (self.name, invocation, value, transaction_id, sequence))
        # A first event here, a new group and a new owner are the common case:
        # lookups with a default, not raises (a raise costs more than a call).
        by_tid = self._events_by_tid
        events = by_tid.get(transaction_id)
        if events is None:
            if by_tid is _NO_LOG:
                self._events_by_tid = {transaction_id: [event]}
                self._op_groups = {}
            else:
                by_tid[transaction_id] = [event]
        else:
            events.append(event)
        try:
            op_id = self._op_index[invocation.op]
        except KeyError:
            # Operation outside the tables: its own fallback group.
            self._index_event(event)
            return event
        if self._param_is_args:
            key = (op_id, invocation.args)
        else:
            key = (op_id, self.spec.conflict_parameter(invocation))
        groups = self._op_groups
        try:
            owners = groups.get(key)
        except TypeError:
            # Unhashable conflict parameter: its own fallback group.
            self._index_event(event)
            return event
        if owners is None:
            groups[key] = {transaction_id: 1}
        else:
            owners[transaction_id] = owners.get(transaction_id, 0) + 1
        return event

    def _group_key(self, invocation: Invocation) -> Any:
        """Interned (op id, conflict parameter) identity of an invocation,
        or ``None`` when the op is outside the tables or the parameter is
        unhashable — such events get their own fallback group."""
        op_id = self._op_index.get(invocation.op)
        if op_id is None:
            return None
        key = (op_id, self._conflict_param(invocation))
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def _index_event(self, event: Event) -> None:
        key = self._group_key(event.invocation)
        if key is None:
            # Unhashable parameter or table-unknown op: give the event its
            # own group so classification still sees it (without sharing).
            key = (-1, id(event))
        owners = self._op_groups.setdefault(key, {})
        owners[event.transaction_id] = owners.get(event.transaction_id, 0) + 1

    @property
    def uncommitted(self) -> List[Event]:
        """The uncommitted operations in execution (``sequence``) order: a
        new list per read, derived from ``_events_by_tid``."""
        log = [event for events in self._events_by_tid.values() for event in events]
        log.sort(key=_SEQUENCE)
        return log

    def live_transactions(self) -> Set[int]:
        """Transactions with at least one uncommitted operation here."""
        return set(self._events_by_tid)

    def events_of(self, transaction_id: int) -> List[Event]:
        """Uncommitted events of one transaction, in execution order."""
        return list(self._events_by_tid.get(transaction_id, ()))

    def remove_transaction(self, transaction_id: int, commit: bool) -> List[Event]:
        """Remove a transaction's operations from the uncommitted log.

        On *commit* the operations are folded into the committed state (in
        their original execution order); on *abort* they are simply dropped
        — the paper's ``E || A_j`` semantics.  A transaction that owned the
        whole log leaves nothing to recompute (the visible state is already
        the post-commit committed state, the committed state the post-abort
        visible one), and the copy goes back to holding no log.  Otherwise
        the transaction is popped from the owners of every operation group
        (an emptied group goes), and on a materialized object the visible
        state is refolded from the committed one.
        """
        by_tid = self._events_by_tid
        if by_tid is _NO_LOG:
            return []
        removed = by_tid.pop(transaction_id, None)
        if not removed:
            return []
        if not by_tid:
            self._events_by_tid = self._op_groups = _NO_LOG
            if commit:
                self.committed_state = self.current_state
            else:
                self.current_state = self.committed_state
            return removed
        groups = self._op_groups
        for key, owners in list(groups.items()):
            if transaction_id in owners:
                del owners[transaction_id]
                if not owners:
                    del groups[key]
        if self.materialize_state:
            if commit:
                self.committed_state = self._fold(self.committed_state, removed)
            self.current_state = self._fold(self.committed_state, self.uncommitted)
        return removed

    def _fold(self, state: Any, events: Iterable[Event]) -> Any:
        """``state`` with ``events`` applied in order by ``spec.next_state``."""
        next_state = self.spec.next_state
        for event in events:
            state = next_state(state, event.invocation)
        return state

    # ------------------------------------------------------------------
    # Blocked queue maintenance
    # ------------------------------------------------------------------
    def enqueue_blocked(self, request: PendingRequest) -> None:
        """Append a blocked request to the FIFO queue.

        Stamps the manager-interned (op id, conflict parameter) identity on
        the request so queue scans (:meth:`classify_request`) classify it
        with two int index operations instead of re-deriving tuple keys.
        """
        invocation = request.invocation
        op_id = self._op_index.get(invocation.op)
        if op_id is not None:
            request.op_id = op_id
            if self._param_is_args:
                request.param = invocation.args
            else:
                request.param = self.spec.conflict_parameter(invocation)
        self.blocked.append(request)

    def remove_blocked_of(self, transaction_id: int) -> List[PendingRequest]:
        """Drop (and return) every queued request owned by ``transaction_id``."""
        removed: List[PendingRequest] = []
        kept: List[PendingRequest] = []
        for pending in self.blocked:
            (removed if pending.transaction_id == transaction_id else kept).append(pending)
        if removed:
            self.blocked = kept
        return removed

    # ------------------------------------------------------------------
    # Reset
    # ------------------------------------------------------------------
    def discard_volatile(self) -> None:
        """Drop what a crash loses: the uncommitted log, the blocked queue
        and their indexes.  The committed state is durable and becomes the
        visible state again, and the copy holds no log; the
        construction-time artifacts that make managers expensive to build —
        compiled policy tables and interned operation ids — are kept."""
        self.current_state = self.committed_state
        self.blocked.clear()
        self._events_by_tid = self._op_groups = _NO_LOG

    def restore_initial_state(self) -> None:
        """Rewind the committed (and visible) state to the registered one."""
        self.committed_state = self.current_state = self._initial_committed

    def reset(self) -> None:
        """Restore the manager to its just-constructed state."""
        self.discard_volatile()
        self.restore_initial_state()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ObjectManager {self.name!r} type={self.spec.name!r} "
            f"uncommitted={len(self.uncommitted)} blocked={len(self.blocked)}>"
        )
