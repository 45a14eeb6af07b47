"""Multi-site execution layer: router, sites, placement, replication.

This package turns the centralized scheduler into a distributed system in the
style of the classical replicated-data exercises (and of the paper's outlook
section): a :class:`TransactionRouter` owning global transaction ids routes
operations over per-site :class:`Site` units (each wrapping its own
:class:`~repro.core.scheduler.Scheduler` and concurrency-control backend)
according to a pluggable :class:`PlacementPolicy`, with a pluggable
:class:`ReplicationProtocol` deciding replica selection, failure
consequences and recovery semantics — available-copies (read-one /
write-all-available), version-numbered quorum consensus, or primary-copy
with deterministic failover — plus scripted site failure and recovery with
catch-up.  A pluggable :class:`CommitProtocol` decides when a distributed
commit may report durable: the one-shot fan-out baseline, or 2PC with
commit-time cycle certification, W-ack durability and failure-triggered
re-replication.

See :mod:`repro.distributed.router`, :mod:`repro.distributed.replication`
and :mod:`repro.distributed.commit` for the protocol details.  A simulation
imports this package on its first multi-site build (see :mod:`repro.sim.routing`).
"""

from .commit import (
    CommitProtocol,
    CommitStatistics,
    OnePhase,
    TwoPhase,
    make_commit_protocol,
)
from .cycles import UnionCycleDetector
from .placement import (
    HashShardedPlacement,
    PlacementPolicy,
    ReplicatedPlacement,
    SingleSitePlacement,
    make_placement,
)
from .replication import (
    AvailableCopies,
    PrimaryCopy,
    QuorumConsensus,
    ReplicationProtocol,
    ReplicationStatistics,
    make_replication_protocol,
)
from .router import (
    BranchRef,
    GlobalRequest,
    GlobalTransaction,
    RouterStatistics,
    TransactionRouter,
)
from .site import Site, SiteStatus

__all__ = [
    "AvailableCopies",
    "BranchRef",
    "CommitProtocol",
    "CommitStatistics",
    "GlobalRequest",
    "GlobalTransaction",
    "HashShardedPlacement",
    "OnePhase",
    "PlacementPolicy",
    "PrimaryCopy",
    "QuorumConsensus",
    "ReplicatedPlacement",
    "ReplicationProtocol",
    "ReplicationStatistics",
    "RouterStatistics",
    "SingleSitePlacement",
    "Site",
    "SiteStatus",
    "TransactionRouter",
    "TwoPhase",
    "UnionCycleDetector",
    "make_commit_protocol",
    "make_placement",
    "make_replication_protocol",
]
