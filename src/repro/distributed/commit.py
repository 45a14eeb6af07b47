"""Pluggable commit protocols for the transaction router.

The :class:`~repro.distributed.router.TransactionRouter` owns the shared
commit machinery — validation, the pseudo-commit/durable-commit state
transitions, listener notification and terminal bookkeeping — and delegates
*when a distributed commit may report durable* to a :class:`CommitProtocol`:

``commit``
    orchestrate the commit of one global transaction over its branches;
``on_branch_committed``
    a branch durably committed locally (the participant's ack);
``on_pseudo_branch_lost``
    a site crash destroyed a branch that was still awaiting its durable
    local commit;
``on_site_failed`` / ``on_site_recovered``
    protocol consequences of the site lifecycle, run after the router's own
    failure/recovery processing.

Two protocols are provided:

* :class:`OnePhase` — the extracted baseline: one commit fan-out to every
  live branch, durable once every branch drained, and the available-copies
  rule that a pseudo-committed branch lost with its site is simply dropped
  from the outstanding set.  Its decision stream is bit-identical to the
  pre-refactor router — including the known weakness that, under
  :class:`~repro.distributed.replication.QuorumConsensus`, a commit can
  finalize *under-replicated* (fewer than ``W`` stamped live copies, see
  the ``replication_under_replicated_window`` counter).
* :class:`TwoPhase` — a 2PC-style coordinator.  The prepare step certifies
  the commit against the union dependency graph *before any branch stamps
  durable* (a cross-site dependency cycle closed during a termination
  cascade — the race the periodic sweep can miss — aborts a victim instead
  of reaching a circular global commit order), and the commit reports
  durable only once the replication protocol's write-durability condition
  holds: under quorum consensus, ``W`` live stamped copies per written
  object.  A participant branch lost to a crash no longer silently drops
  the requirement — the commit stays pseudo-committed and
  ``on_site_failed`` triggers *re-replication* of under-stamped objects to
  spare live replicas, restoring full ``W``-replication without waiting
  for the crashed site to recover.  The extra message round is charged to
  the network model (``msg_time`` per round) and counted in
  :class:`CommitStatistics`.  An optional ``prepare_timeout`` bounds the
  wait: a commit still under-stamped after that much simulated time is
  force-reported (and shows up in the under-replication window counter),
  trading the safety window back for latency.

With one site both protocols degenerate to the same local commit, and the
router reports no ``commit_*`` counters — the pinned centralized counter
sets stay closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Optional,
    Sequence,
    Set,
)

from ..core.errors import ReproError, SimulationError
from ..core.requests import AbortReason
from ..core.transaction import TransactionStatus

#: Transaction statuses the commit paths compare against, bound once (an
#: ``Enum`` class attribute load costs about 100 ns, a module global 3).
_ACTIVE = TransactionStatus.ACTIVE
_PSEUDO_COMMITTED = TransactionStatus.PSEUDO_COMMITTED
_COMMITTED = TransactionStatus.COMMITTED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..sim.engine import EventEngine
    from .router import GlobalTransaction, TransactionRouter
    from .site import Site

__all__ = [
    "CommitStatistics",
    "CommitProtocol",
    "OnePhase",
    "TwoPhase",
    "make_commit_protocol",
]


@dataclass
class CommitStatistics:
    """Commit-protocol overhead counters (deterministic ints).

    ``prepare_messages`` models the PREPARE round's traffic — one message
    per branch beyond the first, the same home-agnostic fan-out accounting
    as the replication layer's ``messages`` counter — and ``prepare_acks``
    the durable local commits the coordinator observed.  ``re_replications`` counts
    restore passes that copied at least one object,
    ``re_replicated_objects`` the copies installed.  ``forced_reports``
    counts commits the ``prepare_timeout`` reported while still
    under-stamped.
    """

    prepare_rounds: int = 0
    prepare_messages: int = 0
    prepare_acks: int = 0
    certifications: int = 0
    certification_aborts: int = 0
    re_replications: int = 0
    re_replicated_objects: int = 0
    forced_reports: int = 0


class CommitProtocol:
    """When a global commit may report durable, for one router.

    A protocol instance is attached to exactly one router (it may keep
    per-run state — pending commits awaiting their durability condition)
    and owns the commit orchestration the router delegates.
    """

    #: Short name used in parameters and reports.
    name = "abstract"
    #: Message rounds the commit fan-out pays on the network model: the
    #: one-shot fan-out travels once, 2PC adds the prepare round.
    network_rounds = 1

    def __init__(self) -> None:
        self.router: "TransactionRouter" = None  # type: ignore[assignment]
        self.stats = CommitStatistics()
        #: The simulation engine that runs future work (the prepare
        #: timeout); ``None`` for direct router users, who drive no
        #: simulated clock.
        self._engine: Optional["EventEngine"] = None
        #: Event kind of the prepare timeout on that engine (set with it).
        self._expire_kind = -1

    def attach(self, router: "TransactionRouter") -> None:
        """Bind the protocol to its router (called once, at construction)."""
        if self.router is not None:
            raise ReproError(
                f"commit protocol {self.name!r} is already attached; "
                "protocols hold per-run state and must not be shared"
            )
        self.router = router

    def attach_clock(self, engine: "EventEngine") -> None:
        """Give the protocol the engine that runs its future work.

        The protocol registers its prepare timeout as an event kind, so each
        scheduled timeout is a plain ``(kind, gtid)`` member.  Without an
        engine (a router driven directly) no timeout is ever scheduled.
        """
        self._engine = engine
        self._expire_kind = engine.register_kind(self._expire)

    def _expire(self, member: tuple) -> None:
        """Typed handler for the prepare timeout (no-op by default)."""

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    def _fan_out(self, transaction: "GlobalTransaction", live: Set[int]) -> None:
        """Issue the local commit at every live branch (the commit round).

        A branch with no commit dependencies durably commits synchronously
        (its relay drops the site from ``outstanding``); a branch that
        pseudo-commits locally stays in and acks when its dependencies
        drain.
        """
        router = self.router
        transaction.outstanding = set(live)
        ordered = sorted(live)
        router.replication.on_commit_fanout(ordered)
        for site_id in ordered:
            branch = transaction.branches[site_id]
            router.sites[site_id].scheduler.commit(branch.local_tid)

    def _branch_resolved(self, transaction: "GlobalTransaction", site_id: int) -> None:
        """An outstanding branch acked (durable local commit) or died.

        Shared by the ack and branch-lost paths: the site leaves the
        outstanding set either way, and when it was the last one the
        protocol decides what "all branches resolved" means
        (:meth:`_all_branches_resolved` — report durable, or check the
        write-durability condition first).
        """
        if transaction.outstanding is None:
            return
        transaction.outstanding.discard(site_id)
        if (
            not transaction.outstanding
            and transaction.status is _PSEUDO_COMMITTED
        ):
            self._all_branches_resolved(transaction)

    def _all_branches_resolved(self, transaction: "GlobalTransaction") -> None:
        """Every branch acked or died; decide whether the commit reports."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Hooks the router delegates to
    # ------------------------------------------------------------------
    def commit(self, transaction: "GlobalTransaction") -> TransactionStatus:
        """Commit one validated, ACTIVE global transaction."""
        raise NotImplementedError

    def on_branch_committed(self, site: "Site", transaction: "GlobalTransaction") -> None:
        """A branch durably committed at ``site`` (the participant's ack)."""

    def on_pseudo_branch_lost(self, transaction: "GlobalTransaction", site_id: int) -> None:
        """A crash destroyed a branch still awaiting its durable commit."""

    def on_site_failed(self, site_id: int) -> None:
        """A site crashed; runs after the router aborted/drained the fallout."""

    def on_site_recovered(self, site: "Site") -> None:
        """A site came back up; runs after the replication catch-up."""

    def on_transaction_finished(self, transaction: "GlobalTransaction") -> None:
        """A global transaction reached a terminal state (commit or abort)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class OnePhase(CommitProtocol):
    """The extracted baseline: one fan-out, durable when every branch drains.

    Every decision — fan-out order, the drain bookkeeping, the rule that a
    pseudo-committed branch lost with its site is dropped from the
    outstanding set (finalizing the commit if it was the last one) — is the
    pre-refactor router's, which keeps all pinned equivalence streams
    bit-identical.
    """

    name = "one-phase"

    def commit(self, transaction: "GlobalTransaction") -> TransactionStatus:
        router = self.router
        self._fan_out(transaction, router._live_branches(transaction))
        if transaction.outstanding:
            return router._record_pseudo_commit(transaction)
        router._finalize_commit(transaction)
        return _COMMITTED

    def on_branch_committed(self, site: "Site", transaction: "GlobalTransaction") -> None:
        self._branch_resolved(transaction, site.site_id)

    def on_pseudo_branch_lost(self, transaction: "GlobalTransaction", site_id: int) -> None:
        """Available-copies rule: the lost branch's durable commit can no
        longer be reported; the surviving replicas carry its effects."""
        self._branch_resolved(transaction, site_id)

    def _all_branches_resolved(self, transaction: "GlobalTransaction") -> None:
        self.router._finalize_commit(transaction)


class TwoPhase(CommitProtocol):
    """2PC-style coordinator: certify, prepare, report durable at ``W`` acks.

    The prepare step re-checks the union dependency graph *before any
    branch stamps durable*: a dependency cycle through the committing
    transaction — closed, for instance, by a grant inside another
    transaction's termination cascade between two periodic sweeps — aborts
    its youngest ``ACTIVE`` member (the sweep's victim rule) instead of
    reaching the per-branch drain, where each site honours only its local
    edges and the members would durably commit in a circular global order.

    Durability is the replication protocol's write condition, re-checked on
    every ack: under :class:`~repro.distributed.replication.QuorumConsensus`
    a commit reports durable only once each written object has ``W`` live
    stamped copies.  A branch lost to a crash removes its ack but not the
    requirement: the commit stays pseudo-committed and the protocol
    *re-replicates* under-stamped objects to spare live replicas
    (``on_site_failed``), restoring full ``W``-replication without waiting
    for recovery.  When no spare can take the copy the commit waits — for a
    recovery catch-up, a spare freed by a finishing transaction, or the
    optional ``prepare_timeout``, which force-reports the commit
    under-stamped (counted in ``forced_reports`` and in the replication
    protocol's under-replication window).

    Replication protocols without stamped write quorums (available-copies,
    primary-copy) have no ``W`` condition: for them the protocol keeps the
    one-phase drop rule but still certifies and pays the prepare round.
    """

    name = "two-phase"
    network_rounds = 2

    def __init__(self, prepare_timeout: Optional[float] = None):
        super().__init__()
        if prepare_timeout is not None and prepare_timeout <= 0:
            raise SimulationError("prepare_timeout must be positive (or None)")
        self.prepare_timeout = prepare_timeout
        #: Pseudo-committed transactions whose live branches all acked but
        #: whose durability condition is still unmet (under-stamped).
        self._awaiting: Set[int] = set()
        self._rechecking = False

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------
    def commit(self, transaction: "GlobalTransaction") -> TransactionStatus:
        router = self.router
        self.stats.prepare_rounds += 1
        if not self._certify(transaction):
            return transaction.status  # the committer was the victim
        live = router._live_branches(transaction)
        self.stats.prepare_messages += max(0, len(live) - 1)
        self._fan_out(transaction, live)
        if not transaction.outstanding and self._report_durable(transaction):
            return _COMMITTED
        # Prepared everywhere it could be: the caller sees a completion
        # (pseudo-commit) while the durable report waits for the remaining
        # acks and the write-durability condition.
        return router._record_pseudo_commit(transaction)

    def _certify(self, transaction: "GlobalTransaction") -> bool:
        """Abort victims until no union-graph cycle runs through the committer.

        Returns ``False`` when the committing transaction itself was the
        victim (it was the youngest abortable member, or a victim's abort
        cascade reached it) — its commit must not proceed.
        """
        router = self.router
        if router.site_count <= 1:
            return True
        while True:
            self.stats.certifications += 1
            cycle = router._cycles.find_cycle_through(transaction.gtid)
            if cycle is None:
                return True
            victim_gtid = max(
                gtid
                for gtid in cycle
                if router.transactions[gtid].status is _ACTIVE
            )
            self.stats.certification_aborts += 1
            router.router_stats.cross_site_deadlock_aborts += 1
            victim = router.transactions[victim_gtid]
            if victim is transaction:
                router._global_abort(transaction, AbortReason.DEADLOCK)
                return False
            router._global_abort(victim, AbortReason.DEADLOCK)
            if transaction.status is not _ACTIVE:
                return False  # the victim's cascade took the committer down

    # ------------------------------------------------------------------
    # Acks and the durability condition
    # ------------------------------------------------------------------
    def on_branch_committed(self, site: "Site", transaction: "GlobalTransaction") -> None:
        self.stats.prepare_acks += 1
        self._branch_resolved(transaction, site.site_id)

    def on_pseudo_branch_lost(self, transaction: "GlobalTransaction", site_id: int) -> None:
        """The dead branch can never ack; the durability condition remains."""
        self._branch_resolved(transaction, site_id)

    def _all_branches_resolved(self, transaction: "GlobalTransaction") -> None:
        self._report_durable(transaction)

    def _durability_met(self, transaction: "GlobalTransaction") -> bool:
        """The replication protocol's write-durability condition."""
        protocol = self.router.replication
        deficit = getattr(protocol, "write_stamp_deficit", None)
        if deficit is None:
            return True  # no stamped quorums: the surviving acks suffice
        gtid = transaction.gtid
        for name in transaction.writes:
            if deficit(name, gtid) > 0:
                return False
        return True

    def _report_durable(self, transaction: "GlobalTransaction") -> bool:
        """Finalize if the durability condition holds (restoring if needed)."""
        if not self._durability_met(transaction):
            self._restore(sorted(transaction.writes))
            if not self._durability_met(transaction):
                self._hold(transaction)
                return False
        self._awaiting.discard(transaction.gtid)
        self.router._finalize_commit(transaction)
        return True

    def _hold(self, transaction: "GlobalTransaction") -> None:
        if transaction.gtid in self._awaiting:
            return
        self._awaiting.add(transaction.gtid)
        if self.prepare_timeout is not None and self._engine is not None:
            self._engine.schedule(
                self.prepare_timeout, (self._expire_kind, transaction.gtid)
            )

    def _expire(self, member: tuple) -> None:
        """Typed handler ``(kind, gtid)``, the prepare timeout: report the
        commit even while under-stamped."""
        gtid = member[1]
        if gtid not in self._awaiting:
            return
        self._awaiting.discard(gtid)
        transaction = self.router.transactions.get(gtid)
        if (
            transaction is None
            or transaction.status is not _PSEUDO_COMMITTED
        ):
            return
        # The condition may have been met since the hold (another
        # transaction's drain can stamp this commit's objects without any
        # recheck firing): only a report that is genuinely still
        # under-stamped counts as forced.
        if not self._durability_met(transaction):
            self.stats.forced_reports += 1
        self.router._finalize_commit(transaction)

    # ------------------------------------------------------------------
    # Re-replication and the pending-commit rechecks
    # ------------------------------------------------------------------
    def _restore(self, names: Optional[Sequence[str]] = None) -> None:
        """Restore full write-replication of under-stamped objects."""
        protocol = self.router.replication
        restore = getattr(protocol, "restore_write_replication", None)
        if restore is None:
            return
        copied = restore(names)
        if copied:
            self.stats.re_replications += 1
            self.stats.re_replicated_objects += copied

    def _recheck_awaiting(self) -> None:
        """Finalize held commits whose durability condition newly holds."""
        if self._rechecking:
            return
        self._rechecking = True
        try:
            for gtid in sorted(self._awaiting):
                if gtid not in self._awaiting:
                    continue  # finalized by an earlier iteration's cascade
                transaction = self.router.transactions.get(gtid)
                if (
                    transaction is None
                    or transaction.status is not _PSEUDO_COMMITTED
                ):
                    self._awaiting.discard(gtid)
                    continue
                if self._durability_met(transaction):
                    self._awaiting.discard(gtid)
                    self.router._finalize_commit(transaction)
        finally:
            self._rechecking = False

    def on_site_failed(self, site_id: int) -> None:
        """Re-replicate under-stamped objects, then re-check held commits."""
        self._restore()
        self._recheck_awaiting()

    def on_site_recovered(self, site: "Site") -> None:
        """The replication catch-up ran first: stamps may have returned."""
        self._recheck_awaiting()

    def on_transaction_finished(self, transaction: "GlobalTransaction") -> None:
        self._awaiting.discard(transaction.gtid)
        if self._awaiting and not self._rechecking:
            # The finished transaction may have freed a spare copy a restore
            # skipped (in-flight work blocks install_committed): retry — but
            # only for the objects the held commits actually wait on, not
            # the whole database, since this runs on every finish.
            self._restore(self._awaiting_objects())
            self._recheck_awaiting()

    def _awaiting_objects(self) -> Sequence[str]:
        """Union of the held commits' written objects, sorted."""
        names: Set[str] = set()
        for gtid in sorted(self._awaiting):
            held = self.router.transactions.get(gtid)
            if held is not None:
                names.update(held.writes)
        return sorted(names)


_PROTOCOLS = {protocol.name: protocol for protocol in (OnePhase, TwoPhase)}


def make_commit_protocol(
    kind: str, prepare_timeout: Optional[float] = None
) -> CommitProtocol:
    """Construct the commit protocol named by ``kind``.

    ``kind`` is ``"one-phase"`` or ``"two-phase"`` (the value of the
    ``commit_protocol`` simulation parameter and of the CLI's
    ``--commit-protocol`` flag); ``prepare_timeout`` only applies to — and
    is only accepted for — the two-phase protocol.
    """
    try:
        protocol = _PROTOCOLS[kind]
    except KeyError:
        raise SimulationError(
            f"unknown commit protocol {kind!r} (expected one of {sorted(_PROTOCOLS)})"
        ) from None
    if protocol is TwoPhase:
        return TwoPhase(prepare_timeout=prepare_timeout)
    if prepare_timeout is not None:
        raise SimulationError(
            f"prepare_timeout only applies to the 'two-phase' protocol, not {kind!r}"
        )
    return protocol()
