"""Caller-visible request objects shared by the scheduler and its backends.

These classes used to live in :mod:`repro.core.scheduler`; they are split out
so that concurrency-control backends (:mod:`repro.core.backends`) can use them
without importing the scheduler module itself.  The scheduler re-exports them,
so existing ``from repro.core.scheduler import RequestHandle`` imports keep
working.

Handles are *poolable*: when a scheduler runs with request pooling on
(:class:`~repro.core.pool.ObjectPool`), a handle is retired to a freelist at
transaction finish and reused by a later submit.  ``generation`` is bumped on
every retire so a caller that stashed a handle across its transaction's
termination observes a :class:`~repro.core.errors.StaleHandleError` on the
next status read instead of silently aliasing the recycled request.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from .errors import StaleHandleError
from .specification import Invocation

__all__ = ["RequestStatus", "AbortReason", "RequestHandle"]


class RequestStatus(enum.Enum):
    """Observable status of an operation request."""

    EXECUTED = "executed"
    BLOCKED = "blocked"
    ABORTED = "aborted"
    #: The handle was retired to an object pool; any further status read is a
    #: use-after-recycle bug and raises :class:`StaleHandleError`.
    RECYCLED = "recycled"


class AbortReason(enum.Enum):
    """Why the scheduler (or the multi-site router) aborted a transaction."""

    DEADLOCK = "deadlock"
    DEPENDENCY_CYCLE = "commit-dependency cycle"
    USER = "user abort"
    #: A site this transaction wrote to failed (available-copies rule).
    SITE_FAILURE = "site failure"
    #: No live site could serve the requested operation.
    SITE_UNAVAILABLE = "site unavailable"


#: Read by every status check of a handle, bound once (an ``Enum`` class
#: attribute load costs about 100 ns, a module global 3).
_EXECUTED = RequestStatus.EXECUTED
_BLOCKED = RequestStatus.BLOCKED
_ABORTED = RequestStatus.ABORTED
_RECYCLED = RequestStatus.RECYCLED


@dataclass(slots=True)
class RequestHandle:
    """The caller-visible result of :meth:`repro.core.scheduler.Scheduler.perform`.

    A handle starts in the status the scheduler decided immediately
    (``EXECUTED``, ``BLOCKED``, or ``ABORTED``).  A blocked handle is updated
    in place when the request is granted or the transaction is later aborted,
    so callers (and the simulator) can poll or react through listeners.
    """

    transaction_id: int
    object_name: str
    invocation: Invocation
    status: Optional[RequestStatus] = None
    value: Any = None
    abort_reason: Optional[AbortReason] = None
    #: Bumped each time the handle is retired to a pool.  A caller that
    #: captured ``(handle, handle.generation)`` can detect recycling; the
    #: status properties do it automatically by raising on ``RECYCLED``.
    generation: int = 0

    @property
    def executed(self) -> bool:
        status = self.status
        if status is _RECYCLED:
            raise StaleHandleError(self.transaction_id, self.generation)
        return status is _EXECUTED

    @property
    def blocked(self) -> bool:
        status = self.status
        if status is _RECYCLED:
            raise StaleHandleError(self.transaction_id, self.generation)
        return status is _BLOCKED

    @property
    def aborted(self) -> bool:
        status = self.status
        if status is _RECYCLED:
            raise StaleHandleError(self.transaction_id, self.generation)
        return status is _ABORTED
