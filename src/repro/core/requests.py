"""Caller-visible request objects shared by the scheduler and its backends.

These classes used to live in :mod:`repro.core.scheduler`; they are split out
so that concurrency-control backends (:mod:`repro.core.backends`) can use them
without importing the scheduler module itself.  The scheduler re-exports them,
so existing ``from repro.core.scheduler import RequestHandle`` imports keep
working.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from .specification import Invocation

__all__ = ["RequestStatus", "AbortReason", "RequestHandle"]


class RequestStatus(enum.Enum):
    """Observable status of an operation request."""

    EXECUTED = "executed"
    BLOCKED = "blocked"
    ABORTED = "aborted"


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


@dataclass(slots=True)
class RequestHandle:
    """The caller-visible result of :meth:`repro.core.scheduler.Scheduler.perform`.

    A handle starts in the status the scheduler decided immediately
    (``EXECUTED``, ``BLOCKED``, or ``ABORTED``).  A blocked handle is updated
    in place when the request is granted or the transaction is later aborted,
    so callers (and the simulator) can poll or react through listeners.  A
    handle is built once per request and keeps its final status and value
    after its transaction ends.
    """

    transaction_id: int
    object_name: str
    invocation: Invocation
    status: Optional[RequestStatus] = None
    value: Any = None
    abort_reason: Optional[AbortReason] = None

    @property
    def executed(self) -> bool:
        return self.status is _EXECUTED

    @property
    def blocked(self) -> bool:
        return self.status is _BLOCKED

    @property
    def aborted(self) -> bool:
        return self.status is _ABORTED
