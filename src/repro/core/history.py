"""Execution logs (histories) of operations and termination events.

The paper reasons about a log ``E = (OP_E, <_E)``: the set of operations
executed by a group of transactions together with their execution order, plus
the special termination operations *commit* and *abort*.  This module provides
a concrete, append-only :class:`ExecutionLog` that the offline checkers in
:mod:`repro.core.serializability` consume.  The log is a
:class:`~repro.core.scheduler.SchedulerListener`: subscribe one with
``scheduler.add_listener(log)`` and it records what that scheduler executes,
pseudo-commits, commits and aborts from then on.  Logs can also be written by
hand (see the unit tests), which makes it easy to replay the example
sequences (1)-(3) from Section 3.2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .requests import AbortReason, RequestHandle
from .scheduler import SchedulerListener
from .specification import Event, Invocation

__all__ = ["RecordKind", "LogRecord", "ExecutionLog"]


class RecordKind(enum.Enum):
    """The kind of a log record."""

    OPERATION = "operation"
    COMMIT = "commit"
    PSEUDO_COMMIT = "pseudo-commit"
    ABORT = "abort"


@dataclass(frozen=True)
class LogRecord:
    """One entry of an execution log.

    ``OPERATION`` records carry an :class:`~repro.core.specification.Event`;
    termination records carry only the transaction id.  ``sequence`` is the
    global execution order (the total order the simulator/scheduler observed;
    the partial order ``<_E`` of the paper is a sub-relation of it).
    """

    kind: RecordKind
    transaction_id: int
    sequence: int
    event: Optional[Event] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind is RecordKind.OPERATION and self.event is not None:
            return str(self.event)
        return f"({self.kind.value}, T{self.transaction_id})"


class ExecutionLog(SchedulerListener):
    """An append-only record of operations and terminations.

    The log offers the handful of queries the checkers need: the events of a
    given object or transaction in execution order, which transactions have
    committed / aborted, and which were still uncommitted when a given event
    executed.

    Subscribed to a scheduler, it records every operation the scheduler
    executes or grants and every pseudo-commit, commit and abort, in the
    order the scheduler announces them.  The log belongs to its subscriber:
    the scheduler's ``reset()`` and ``discard_volatile()`` leave it as it is.
    """

    def __init__(self) -> None:
        self._records: List[LogRecord] = []
        self._sequence = 0

    # ------------------------------------------------------------------
    # Building the log
    # ------------------------------------------------------------------
    def _next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    def append_operation(
        self, object_name: str, invocation: Invocation, value: object, transaction_id: int
    ) -> Event:
        """Append an operation event and return it."""
        sequence = self._next_sequence()
        event = Event(
            object_name=object_name,
            invocation=invocation,
            value=value,
            transaction_id=transaction_id,
            sequence=sequence,
        )
        self._records.append(
            LogRecord(
                kind=RecordKind.OPERATION,
                transaction_id=transaction_id,
                sequence=sequence,
                event=event,
            )
        )
        return event

    def append_event(self, event: Event) -> Event:
        """Append a pre-built event, assigning it the next sequence number."""
        return self.append_operation(
            event.object_name, event.invocation, event.value, event.transaction_id
        )

    def append_commit(self, transaction_id: int) -> None:
        """Record the commit (durable termination) of a transaction."""
        self._records.append(
            LogRecord(RecordKind.COMMIT, transaction_id, self._next_sequence())
        )

    def append_pseudo_commit(self, transaction_id: int) -> None:
        """Record that a transaction pseudo-committed (completed for the user)."""
        self._records.append(
            LogRecord(RecordKind.PSEUDO_COMMIT, transaction_id, self._next_sequence())
        )

    def append_abort(self, transaction_id: int) -> None:
        """Record the abort of a transaction."""
        self._records.append(
            LogRecord(RecordKind.ABORT, transaction_id, self._next_sequence())
        )

    # ------------------------------------------------------------------
    # Listening to a scheduler
    # ------------------------------------------------------------------
    def on_executed(self, transaction_id: int, handle: RequestHandle, event: Event) -> None:
        self.append_event(event)

    def on_granted(self, transaction_id: int, handle: RequestHandle, event: Event) -> None:
        self.append_event(event)

    def on_pseudo_committed(self, transaction_id: int) -> None:
        self.append_pseudo_commit(transaction_id)

    def on_committed(self, transaction_id: int) -> None:
        self.append_commit(transaction_id)

    def on_aborted(self, transaction_id: int, reason: AbortReason) -> None:
        self.append_abort(transaction_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records(self) -> Tuple[LogRecord, ...]:
        """All records in execution order."""
        return tuple(self._records)

    def events(self) -> List[Event]:
        """All operation events in execution order."""
        return [r.event for r in self._records if r.kind is RecordKind.OPERATION and r.event]

    def events_on(self, object_name: str) -> List[Event]:
        """Operation events on a single object, in execution order."""
        return [e for e in self.events() if e.object_name == object_name]

    def events_of(self, transaction_id: int) -> List[Event]:
        """Operation events invoked by one transaction, in execution order."""
        return [e for e in self.events() if e.transaction_id == transaction_id]

    def object_names(self) -> List[str]:
        """Names of every object touched by the log, in first-touch order."""
        seen: List[str] = []
        for event in self.events():
            if event.object_name not in seen:
                seen.append(event.object_name)
        return seen

    def transactions(self) -> Set[int]:
        """Every transaction id appearing in the log."""
        return {r.transaction_id for r in self._records}

    def committed(self) -> Set[int]:
        """Transactions with a COMMIT record."""
        return {
            r.transaction_id for r in self._records if r.kind is RecordKind.COMMIT
        }

    def aborted(self) -> Set[int]:
        """Transactions with an ABORT record."""
        return {r.transaction_id for r in self._records if r.kind is RecordKind.ABORT}

    def active(self) -> Set[int]:
        """Transactions that have neither committed nor aborted."""
        return self.transactions() - self.committed() - self.aborted()

    def committed_before(self, sequence: int) -> Set[int]:
        """Transactions whose COMMIT record precedes ``sequence``."""
        return {
            r.transaction_id
            for r in self._records
            if r.kind is RecordKind.COMMIT and r.sequence < sequence
        }

    def terminated_before(self, sequence: int) -> Set[int]:
        """Transactions that committed or aborted before ``sequence``."""
        return {
            r.transaction_id
            for r in self._records
            if r.kind in (RecordKind.COMMIT, RecordKind.ABORT) and r.sequence < sequence
        }

    def without_transactions(self, excluded: Iterable[int]) -> "ExecutionLog":
        """Return a copy of the log with all records of ``excluded`` removed.

        This is the paper's ``E || A_j`` construction: appending the abort of a
        transaction undoes and deletes its operations from the log.  Sequence
        numbers of the surviving records are preserved so ``<_E`` is unchanged.
        """
        excluded = set(excluded)
        clone = ExecutionLog()
        clone._records = [r for r in self._records if r.transaction_id not in excluded]
        clone._sequence = self._sequence
        return clone

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def render(self) -> str:
        """Render the log in the paper's ``X: (op, value, T)`` notation."""
        return "\n".join(str(record) for record in self._records)
