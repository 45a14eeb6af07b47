"""repro — Semantics-Based Concurrency Control: Beyond Commutativity.

A full reproduction of Badrinath & Ramamritham's recoverability-based
concurrency control (ICDE 1987 / ACM TODS 17(1), 1992): the formal model of
operations on atomic data types, commutativity and recoverability tables, the
scheduler with commit-dependency tracking and pseudo-commit, the bundled data
types (Page, Stack, Set, Table, and extras), the closed-queuing simulation
model of Section 5, and the experiment harness that regenerates every table
and figure of the paper's evaluation.

Quick start::

    from repro import Scheduler, ConflictPolicy
    from repro.adts import StackType

    scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
    scheduler.register_object("S", StackType())
    t1, t2 = scheduler.begin(), scheduler.begin()
    scheduler.perform(t1.tid, "S", "push", 4)
    scheduler.perform(t2.tid, "S", "push", 2)   # recoverable: executes now
    scheduler.commit(t2.tid)                     # pseudo-commits behind T1
    scheduler.commit(t1.tid)                     # both durably commit

The multi-site layer (:mod:`repro.distributed`) and the offline checkers load
on first use of one of their names.
"""

from typing import TYPE_CHECKING, Any

from .core import (
    AbortReason,
    Answer,
    CompatibilitySpec,
    ConcurrencyControlBackend,
    ConflictClass,
    ConflictPolicy,
    DependencyGraph,
    EdgeKind,
    Event,
    Invocation,
    ObjectManager,
    OperationResult,
    OperationSpec,
    RelationTable,
    RequestHandle,
    RequestStatus,
    Scheduler,
    SchedulerListener,
    SchedulerStatistics,
    SemanticBackend,
    Transaction,
    TransactionStatus,
    TwoPhaseLockingBackend,
    TypeSpecification,
)
from .core.lazy import lazy_exports
from .sim.routing import register_router_factory

if TYPE_CHECKING:
    from .core import (ExecutionLog, ObjectUniverse, check_declared_sound, derive_compatibility,
                       is_free_of_cascading_aborts, is_log_sound, is_serializable)
    from .distributed import (GlobalRequest, GlobalTransaction, PlacementPolicy, Site,
                              SiteStatus, TransactionRouter)
else:
    __getattr__ = lazy_exports(__name__, {
        "core": ("ExecutionLog", "ObjectUniverse", "check_declared_sound",
                 "derive_compatibility", "is_free_of_cascading_aborts",
                 "is_log_sound", "is_serializable"),
        "distributed": ("GlobalRequest", "GlobalTransaction", "PlacementPolicy",
                        "Site", "SiteStatus", "TransactionRouter"),
    })


def _build_router(**options: Any) -> Any:
    # ``repro.sim`` may not import ``repro.distributed`` (REP004), so the
    # router arrives through this seam, and a centralized run never loads it.
    from .distributed import TransactionRouter

    return TransactionRouter(**options)


register_router_factory(_build_router)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "AbortReason",
    "Answer",
    "CompatibilitySpec",
    "ConcurrencyControlBackend",
    "ConflictClass",
    "ConflictPolicy",
    "DependencyGraph",
    "EdgeKind",
    "Event",
    "ExecutionLog",
    "GlobalRequest",
    "GlobalTransaction",
    "Invocation",
    "ObjectManager",
    "ObjectUniverse",
    "OperationResult",
    "OperationSpec",
    "PlacementPolicy",
    "RelationTable",
    "RequestHandle",
    "RequestStatus",
    "Scheduler",
    "SchedulerListener",
    "SchedulerStatistics",
    "SemanticBackend",
    "Site",
    "SiteStatus",
    "Transaction",
    "TransactionRouter",
    "TransactionStatus",
    "TwoPhaseLockingBackend",
    "TypeSpecification",
    "check_declared_sound",
    "derive_compatibility",
    "is_free_of_cascading_aborts",
    "is_log_sound",
    "is_serializable",
]
