"""Transactions and their lifecycle.

A transaction in this library is the unit the scheduler reasons about: a set
of executed operation events, a status, and bookkeeping used by the commit
protocol and by the performance metrics of Section 5 (number of blocks,
restarts, and the length at abort time).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Set

from .errors import TransactionStateError
from .specification import Event, Invocation

__all__ = ["TransactionStatus", "Transaction"]


class TransactionStatus(enum.Enum):
    """The lifecycle states of a transaction.

    ``ACTIVE``
        executing operations (or between operations);
    ``BLOCKED``
        its latest request conflicted and is queued at an object manager;
    ``PSEUDO_COMMITTED``
        finished from the user's point of view, waiting for the transactions
        it has commit dependencies on to terminate (Section 4.3);
    ``COMMITTED``
        durably committed — effects merged into the committed object states;
    ``ABORTED``
        rolled back — its operations were removed from every object log.
    """

    ACTIVE = "active"
    BLOCKED = "blocked"
    PSEUDO_COMMITTED = "pseudo-committed"
    COMMITTED = "committed"
    ABORTED = "aborted"

    @property
    def is_terminated(self) -> bool:
        """True once the transaction has durably committed or aborted."""
        return self in (TransactionStatus.COMMITTED, TransactionStatus.ABORTED)

    @property
    def is_live(self) -> bool:
        """True while the transaction's operations still participate in
        conflict detection (this includes pseudo-committed transactions)."""
        return not self.is_terminated


@dataclass(slots=True)
class Transaction:
    """Scheduler-side record of one transaction."""

    tid: int
    status: TransactionStatus = TransactionStatus.ACTIVE
    #: Events executed so far, in execution order.
    events: List[Event] = field(default_factory=list)
    #: Names of the objects this transaction has visited (executed at least
    #: one operation on) — the paper's "visits" relation.
    objects_visited: Set[str] = field(default_factory=set)
    #: Objects where this transaction currently has a blocked request queued
    #: (at most one in practice: a blocked transaction cannot issue more).
    #: Lets abort drop queued requests without scanning every object manager.
    blocked_at: Set[str] = field(default_factory=set)
    #: Number of times this transaction blocked (for the blocking ratio).
    blocks: int = 0
    #: Number of cycle-detection invocations charged to this transaction.
    cycle_checks: int = 0
    #: Arbitrary per-transaction annotation (used by the simulator).
    label: Optional[str] = None

    # ------------------------------------------------------------------
    # Status transitions (the scheduler drives these)
    # ------------------------------------------------------------------
    def require(self, *allowed: TransactionStatus) -> None:
        """Raise unless the current status is one of ``allowed``."""
        if self.status not in allowed:
            raise TransactionStateError(
                f"transaction {self.tid} is {self.status.value}; expected one of "
                f"{[status.value for status in allowed]}"
            )

    def record_event(self, event: Event) -> None:
        """Record an executed operation event."""
        self.events.append(event)
        self.objects_visited.add(event.object_name)

    @property
    def operation_count(self) -> int:
        """Number of operations executed so far (the paper's abort length
        metric is this value at the moment of abort)."""
        return len(self.events)

    def invocations_on(self, object_name: str) -> List[Invocation]:
        """The invocations this transaction has executed on ``object_name``."""
        return [e.invocation for e in self.events if e.object_name == object_name]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Transaction T{self.tid} {self.status.value} "
            f"ops={self.operation_count} objects={sorted(self.objects_visited)}>"
        )
