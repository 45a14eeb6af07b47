"""Exception hierarchy for the recoverability-based concurrency-control library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause while
still being able to distinguish scheduling outcomes (aborts, blocks) from
programming errors (unknown operations, misuse of the API).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class SpecificationError(ReproError):
    """A data-type specification is malformed or used inconsistently."""


class UnknownOperationError(SpecificationError):
    """An operation name is not defined by the target data type."""

    def __init__(self, type_name: str, op_name: str):
        super().__init__(f"type {type_name!r} defines no operation {op_name!r}")
        self.type_name = type_name
        self.op_name = op_name


class UnknownObjectError(ReproError):
    """A request referenced an object name that is not registered."""

    def __init__(self, object_name: str):
        super().__init__(f"no object named {object_name!r} is registered")
        self.object_name = object_name


class TransactionStateError(ReproError):
    """A transaction was used in a state that does not permit the call.

    Examples: issuing an operation from a committed transaction, committing a
    transaction twice, or operating on behalf of an aborted transaction.
    """


class TransactionAborted(ReproError):
    """Raised (or reported) when the scheduler aborts the calling transaction.

    The scheduler aborts a transaction when admitting its request would create
    a cycle in the dependency graph (either a deadlock through wait-for edges
    or a cyclic commit dependency through recoverability edges).
    """

    def __init__(self, transaction_id: int, reason: str = "dependency cycle"):
        super().__init__(f"transaction {transaction_id} aborted: {reason}")
        self.transaction_id = transaction_id
        self.reason = reason


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent internal state."""


class ExperimentError(ReproError):
    """An experiment definition or run request is invalid."""
