"""Core concurrency-control machinery (the paper's primary contribution).

The subpackage is organised bottom-up:

* :mod:`~repro.core.specification` — the ``state``/``return`` model of
  operations on atomic data types;
* :mod:`~repro.core.compatibility` — commutativity and recoverability tables;
* :mod:`~repro.core.derivation` — deriving those tables from executable specs;
* :mod:`~repro.core.history` — execution logs;
* :mod:`~repro.core.dependency_graph` — the unified wait-for /
  commit-dependency graph;
* :mod:`~repro.core.object_manager`, :mod:`~repro.core.transaction`,
  :mod:`~repro.core.policy`, :mod:`~repro.core.scheduler` — the run-time
  protocol of Section 4;
* :mod:`~repro.core.serializability` — offline soundness / serializability
  checkers used by the tests.
"""

from .backends import (
    ConcurrencyControlBackend,
    LockMode,
    SemanticBackend,
    TwoPhaseLockingBackend,
    make_backend,
)
from .compatibility import Answer, CompatibilitySpec, ConflictClass, RelationTable
from .dependency_graph import DependencyGraph, Edge, EdgeKind
from .derivation import (
    check_declared_sound,
    derive_commutativity_table,
    derive_compatibility,
    derive_recoverability_table,
    invocation_recoverable,
    invocations_commute,
)
from .errors import (
    ReproError,
    SimulationError,
    SpecificationError,
    TransactionAborted,
    TransactionStateError,
    UnknownObjectError,
    UnknownOperationError,
)
from .history import ExecutionLog, LogRecord, RecordKind
from .object_manager import ObjectManager, PendingRequest
from .policy import ConflictPolicy, effective_class
from .scheduler import (
    AbortReason,
    RequestHandle,
    RequestStatus,
    Scheduler,
    SchedulerListener,
    SchedulerStatistics,
)
from .serializability import (
    ObjectUniverse,
    build_dependency_graph,
    is_free_of_cascading_aborts,
    is_log_sound,
    is_rw_conflict_serializable,
    is_serializable,
    serialization_orders,
)
from .specification import (
    Event,
    FunctionalTypeSpecification,
    Invocation,
    OperationResult,
    OperationSpec,
    TypeSpecification,
    apply_sequence,
)
from .transaction import Transaction, TransactionStatus

__all__ = [
    "ConcurrencyControlBackend",
    "LockMode",
    "SemanticBackend",
    "TwoPhaseLockingBackend",
    "make_backend",
    "Answer",
    "CompatibilitySpec",
    "ConflictClass",
    "RelationTable",
    "DependencyGraph",
    "Edge",
    "EdgeKind",
    "check_declared_sound",
    "derive_commutativity_table",
    "derive_compatibility",
    "derive_recoverability_table",
    "invocation_recoverable",
    "invocations_commute",
    "ReproError",
    "SpecificationError",
    "UnknownOperationError",
    "UnknownObjectError",
    "TransactionStateError",
    "TransactionAborted",
    "SimulationError",
    "ExecutionLog",
    "LogRecord",
    "RecordKind",
    "ObjectManager",
    "PendingRequest",
    "ConflictPolicy",
    "effective_class",
    "AbortReason",
    "RequestHandle",
    "RequestStatus",
    "Scheduler",
    "SchedulerListener",
    "SchedulerStatistics",
    "ObjectUniverse",
    "build_dependency_graph",
    "is_free_of_cascading_aborts",
    "is_log_sound",
    "is_rw_conflict_serializable",
    "is_serializable",
    "serialization_orders",
    "Event",
    "FunctionalTypeSpecification",
    "Invocation",
    "OperationResult",
    "OperationSpec",
    "TypeSpecification",
    "apply_sequence",
    "Transaction",
    "TransactionStatus",
]
