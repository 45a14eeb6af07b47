"""Pluggable replication protocols for the transaction router.

The :class:`~repro.distributed.router.TransactionRouter` owns the machinery
every replicated execution needs — global transaction ids, lazy per-site
branches, fan-out bookkeeping, the failure-abort rules, statistics and
listeners — and delegates the replica-placement *decisions* to a
:class:`ReplicationProtocol`:

``select_read`` / ``select_write``
    which replica copies an operation executes at (empty = unavailable);
``on_branch_committed``
    what a durable local commit means for the copy (available-copies
    readability, quorum version bumps);
``on_site_failed`` / ``on_site_recovered``
    protocol consequences of the site lifecycle (primary failover election,
    catch-up recovery from a live replica).

Three protocols are provided:

* :class:`AvailableCopies` — the extracted baseline: read-one over the
  readable copies (stable-hash rotation, least-loaded tie-break),
  write-all-available, and the recovering-copy rule — a recovered replicated
  copy stays unreadable until a transaction that wrote it there durably
  commits.  Its decision stream is bit-identical to the pre-refactor router.
* :class:`QuorumConsensus` — version-numbered read/write quorums with
  ``R + W > N`` and ``2W > N``: reads contact ``R`` readable copies and
  serve the highest version, writes land at ``W`` live copies and bump
  their versions at durable commit.  Recovery catch-up copies committed state from the
  freshest live replica, so reads survive minority failures without the
  available-copies unreadable window.
* :class:`PrimaryCopy` — writes funnel through a per-placement primary
  (propagated eagerly to every live backup), reads are served by any live
  replica, and a primary crash triggers a deterministic failover election
  (lowest live site id).  Recovery catch-up copies committed state from the
  freshest live replica, so recovered replicas serve reads immediately.

Both catch-up protocols share per-copy version bookkeeping
(:class:`_VersionedCatchUp`): recovery copies only from strictly fresher
peers, and a recovered copy becomes readable only once its version has
reached the object's highest reported-committed version — a copy left
behind a reported commit (its crash dropped a pseudo-committed branch
before the durable stamp landed) keeps the unreadable window as a safety
net instead of serving stale data.  A refresh of a site's unreadable copies
costs what the site missed: one pass over the set plus O(copies behind the
latest stamp + copies with an in-flight write) — only a copy behind the
latest stamp can have a fresher source to search for, and the peers'
in-flight writes are collected once per refresh, not once per copy.

Protocol overheads are counted in :class:`ReplicationStatistics` (messages,
failovers, catch-up events) and surface as ``replication_*`` counters in
:meth:`repro.sim.metrics.RunMetrics.counters`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..core.errors import ReproError, SimulationError
from ..core.transaction import TransactionStatus

#: Statuses read per finished transaction and per in-flight event scanned,
#: bound once (an ``Enum`` class attribute load costs about 100 ns, a global 3).
_COMMITTED = TransactionStatus.COMMITTED
_TERMINATED = (TransactionStatus.COMMITTED, TransactionStatus.ABORTED)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .router import GlobalRequest, GlobalTransaction, TransactionRouter
    from .site import Site

__all__ = [
    "ReplicationStatistics",
    "ReplicationProtocol",
    "AvailableCopies",
    "QuorumConsensus",
    "PrimaryCopy",
    "make_replication_protocol",
]


@dataclass
class ReplicationStatistics:
    """Protocol-level overhead counters (deterministic ints).

    ``messages`` models replica-coordination traffic: one message per extra
    replica contacted by a read or write fan-out, per branch of a commit
    fan-out, per object copied during catch-up, and per peer notified of a
    failover election.  It is protocol accounting, independent of whether a
    ``msg_time`` network cost is simulated.
    """

    messages: int = 0
    failovers: int = 0
    catchups: int = 0
    catchup_objects: int = 0
    #: Quorum commits reported durable with fewer than ``W`` live stamped
    #: copies of a written object (one count per under-stamped object).
    #: This is the under-replication window the ROADMAP documented: the
    #: one-phase commit protocol opens it whenever a crash drops a
    #: pseudo-committed branch, the two-phase protocol's W-ack durability
    #: plus re-replication closes it (a nonzero value under 2PC means the
    #: ``prepare_timeout`` force-reported a commit).
    under_replicated_window: int = 0


class ReplicationProtocol:
    """Replica-set selection and lifecycle rules for one router.

    A protocol instance is attached to exactly one router (it may keep
    per-run state — quorum versions, the elected primaries) and answers the
    questions the router fans out on.  The shared default implementations
    are the available-copies rules; subclasses override what differs.
    """

    #: Short name used in parameters and reports.
    name = "abstract"

    def __init__(self) -> None:
        self.router: "TransactionRouter" = None  # type: ignore[assignment]
        self.stats = ReplicationStatistics()
        #: :meth:`_rotated` memo by object name.
        self._rotations: Dict[str, Tuple[int, ...]] = {}

    def attach(self, router: "TransactionRouter") -> None:
        """Bind the protocol to its router (called once, at construction)."""
        if self.router is not None:
            raise ReproError(
                f"replication protocol {self.name!r} is already attached; "
                "protocols hold per-run state and must not be shared"
            )
        self.router = router

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _rotated(self, object_name: str, placed: Sequence[int]) -> Tuple[int, ...]:
        """The placement rotated by a stable hash of the object name.

        Each object gets a deterministic home replica so load spreads over
        the copies without a random draw (CRC32: identical across processes
        and interpreter versions); computed once per object — ``placed`` is
        the placement's answer for the name, so the name alone keys the memo.
        """
        rotation = self._rotations.get(object_name)
        if rotation is None:
            offset = zlib.crc32(object_name.encode("utf-8")) % len(placed)
            rotation = self._rotations[object_name] = (*placed[offset:], *placed[:offset])
        return rotation

    def _load_ranked(self, candidates: List[int]) -> List[int]:
        """Candidates reordered least-loaded-first, ties kept in input order.

        Without per-site hardware (no domains attached) the input order is
        returned unchanged — the pre-refactor behaviour, which keeps pinned
        streams bit-identical.  With site-owned domains the candidates are
        stably sorted by their domain's outstanding load, earlier input
        (hash-rotation) position breaking ties deterministically.
        """
        if len(candidates) <= 1:
            return candidates
        sites = self.router.sites
        loads: List[int] = []
        for sid in candidates:
            domain = sites[sid].domain
            if domain is None:
                return candidates
            loads.append(domain.load)
        order = sorted(range(len(candidates)), key=loads.__getitem__)
        return [candidates[index] for index in order]

    # ------------------------------------------------------------------
    # Replica-set selection
    # ------------------------------------------------------------------
    def select_read(
        self, object_name: str, placed: Sequence[int], request: "GlobalRequest"
    ) -> List[int]:
        """Sites a read executes at (empty: no copy can serve it now).

        Read-one: the least-loaded readable copy, rotation order breaking
        ties — ``_load_ranked(readable)[:1]``, taken as a minimum.  Every
        placed site holds a copy, so a copy is readable when its site is up
        and it is not awaiting a refresh.
        """
        sites = self.router.sites
        chosen: List[int] = []
        least = 0
        for sid in self._rotated(object_name, placed):
            site = sites[sid]
            if site.status.is_up and object_name not in site.unreadable:
                domain = site.domain
                # Shared hardware (no domain), or idle: no later copy beats it.
                if domain is None or domain.load == 0:
                    return [sid]
                if not chosen or domain.load < least:
                    chosen, least = [sid], domain.load
        return chosen

    def select_write(
        self,
        object_name: str,
        placed: Sequence[int],
        transaction: Optional["GlobalTransaction"] = None,
    ) -> List[int]:
        """Sites a write executes at (empty: unavailable).

        Available-copies: every live copy, in placement order — a recovering
        (unreadable) copy accepts writes, which is what refreshes it.
        ``transaction`` lets a protocol keep a transaction's repeat writes
        of one object on a consistent replica set (quorum consensus does).
        """
        sites = self.router.sites
        targets = [sid for sid in placed if sites[sid].status.is_up]
        self.stats.messages += max(0, len(targets) - 1)
        return targets

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def on_branch_committed(self, site: "Site", transaction: "GlobalTransaction") -> None:
        """A branch durably committed at ``site``.

        Available-copies recovery rule: a durably committed write refreshes
        the local copy, making it readable again — but only for objects
        whose write actually landed at *this* site (a write issued while
        the site was down never reached its copy).
        """
        if site.unreadable:
            site_id = site.site_id
            for name, routed in transaction.writes.items():
                if site_id in routed:
                    site.mark_readable(name)

    def on_commit_fanout(self, branch_sites: Sequence[int]) -> None:
        """Count the commit fan-out messages to a transaction's branches."""
        self.stats.messages += max(0, len(branch_sites) - 1)

    def on_site_failed(self, site_id: int) -> None:
        """A site crashed (called after its scheduler state is discarded)."""

    def on_site_recovered(self, site: "Site") -> None:
        """A site came back up (called after its volatile state is discarded).

        Available-copies performs no catch-up: the recovered copies stay
        unreadable until a committed write lands, the protocol's structural
        availability cost.
        """

    def on_transaction_finished(self, transaction: "GlobalTransaction") -> None:
        """A global transaction reached a terminal state (commit or abort)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class AvailableCopies(ReplicationProtocol):
    """Read-one / write-all-available with the recovering-copy rule.

    This is the baseline extracted from the pre-protocol router; every
    decision — replica rotation, least-loaded read selection, write
    fan-out order, readability after recovery — is unchanged, which keeps
    the pinned multi-site and ``sites=1`` streams bit-identical.
    """

    name = "available-copies"


class _VersionedCatchUp(ReplicationProtocol):
    """Shared version bookkeeping for the catch-up protocols.

    Quorum consensus and primary-copy both need to know how fresh each
    copy's durable state is: every durable branch commit stamps the copies
    the write landed at with one new per-object version.  Recovery then has
    an authoritative rule — catch up from a strictly fresher readable peer,
    and mark a copy readable only when its version has reached the highest
    *stamped* version of the object.  A copy that is behind a stamped
    commit (its own pseudo-committed branch was dropped by the crash before
    the stamp landed) stays unreadable — the available-copies window as a
    safety net — rather than serving a stale value for a transaction the
    caller was told committed.

    Because write quorums intersect (``2W > N``) and a transaction's repeat
    writes stick to one W-set, every reported commit leaves at least one
    durably stamped copy even through crash cascades (a branch either
    drained durably before its site died, or the site failure's abort
    cascade drains a surviving sibling).  Under the one-phase commit
    protocol a commit can still end up *under-replicated* — fewer than W
    stamped copies — in which case the affected object trades availability,
    never consistency: reads go unavailable until a stamped copy is back to
    catch peers up, and the ``under_replicated_window`` counter records
    each such reported commit.  The
    :class:`~repro.distributed.commit.TwoPhase` commit protocol closes the
    window: it reports durable only at ``W`` live stamps and restores full
    W-replication through :meth:`QuorumConsensus.restore_write_replication`.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Per site (indexed by site id): object name -> version of the copy
        #: there (missing: 0).  Sized when the router attaches.
        self._version: List[Dict[str, int]] = []
        #: Highest committed version per object (the next write goes above).
        self._latest: Dict[str, int] = {}
        #: Per in-flight commit (gtid): object name -> the version assigned to
        #: it — branches drain at different times but must stamp the same one.
        self._commit_targets: Dict[int, Dict[str, int]] = {}

    def attach(self, router: "TransactionRouter") -> None:
        super().attach(router)
        self._version = [{} for _ in range(router.placement.site_count)]

    def version_of(self, site_id: int, object_name: str) -> int:
        """The committed version of one copy (0 until its first write)."""
        return self._version[site_id].get(object_name, 0)

    def on_branch_committed(self, site: "Site", transaction: "GlobalTransaction") -> None:
        """Stamp the copies the transaction wrote at ``site`` (and make them
        readable, the available-copies rule): every branch stamps an object
        with the one version its commit was assigned."""
        site_id = site.site_id
        versions = self._version[site_id]
        targets = self._commit_targets.setdefault(transaction.gtid, {})
        for name, routed in transaction.writes.items():
            if site_id in routed:
                if site.unreadable:
                    site.mark_readable(name)
                target = targets.get(name)
                if target is None:
                    target = targets[name] = self._latest[name] = self._latest.get(name, 0) + 1
                versions[name] = target

    def on_transaction_finished(self, transaction: "GlobalTransaction") -> None:
        self._refresh_after(transaction)

    def _refresh_after(self, transaction: "GlobalTransaction") -> None:
        """Release the finished transaction's commit targets, then retry the
        recovered copies its in-flight write kept unreadable.

        The finished transaction may have been the in-flight write that
        deferred a recovered copy's readability (see _refresh_copies): retry
        those copies now that the write either stamped fresher peers to
        catch up from or was aborted.  Only a site with an unreadable copy
        of a written object has anything to retry.
        """
        self._commit_targets.pop(transaction.gtid, None)
        writes = transaction.writes
        if writes:
            for site in self.router.sites:
                unreadable = site.unreadable
                if unreadable and site.status.is_up and not unreadable.isdisjoint(writes):
                    self._refresh_copies(site)

    def on_site_recovered(self, site: "Site") -> None:
        self._refresh_copies(site)
        # This recovery may be exactly the fresher source a PEER's stranded
        # copies were waiting for (it recovered earlier, when no live site
        # could teach it): retry catch-up at every other live site that
        # still has unreadable copies, or they would stay unreadable until
        # a write happens to land on them.
        for other in self.router.sites:
            if other is not site and other.status.is_up and other.unreadable:
                self._refresh_copies(other)

    def _refresh_copies(self, site: "Site") -> None:
        """Catch up the unreadable copies of ``site``; re-admit those that may
        serve reads.

        Only a copy behind its object's latest stamp can have a fresher
        readable peer; it copies that peer's *committed* state unless it has
        in-flight work of its own (installing over it is unsafe, and that
        write's durable commit refreshes the copy anyway), and otherwise
        stays unreadable until a fresher peer or a committed write refreshes
        it.  A copy at the latest stamp serves reads again — unless a live
        peer holds an uncommitted write of the object that it missed (issued
        while the site was down, invisible to committed versions): it waits
        for that transaction to finish.
        """
        versions = self._version[site.site_id]
        latest = self._latest
        missed: Optional[Set[str]] = None
        copied = 0
        for name in sorted(site.unreadable):
            version = versions.get(name, 0)
            if version < latest.get(name, 0):
                if site.has_uncommitted(name):
                    continue
                source_id = self._catchup_source(site, name, version)
                if source_id is None:
                    continue
                source = self.router.sites[source_id]
                site.install_committed(name, source.committed_snapshot([name]).get(name))
                versions[name] = self._version[source_id][name]
                copied += 1
                continue
            if missed is None:
                missed = self._missed_writes(site)
            if name not in missed:
                site.mark_readable(name)
        if copied:
            self.stats.catchups += 1
            self.stats.catchup_objects += copied
            self.stats.messages += copied

    def _missed_writes(self, site: "Site") -> Set[str]:
        """Objects of which a live peer of ``site`` holds an uncommitted write.

        Read from the events of the live transactions at every other up
        site — exactly those sites' uncommitted logs.  Such a write was
        necessarily issued while ``site`` was down (a write that reached the
        site died with its volatile state, aborting the writer), so when it
        commits the copy here will be behind the new version.
        """
        is_read_only = self.router._is_read_only
        missed: Set[str] = set()
        for other in self.router.sites:
            if other is site or not other.status.is_up:
                continue
            for transaction in other.scheduler.transactions.values():
                if transaction.status in _TERMINATED:
                    continue  # its events already left the logs
                for event in transaction.events:
                    name = event.object_name
                    if name not in missed and not is_read_only(name, event.invocation):
                        missed.add(name)
        return missed

    def _catchup_source(self, site: "Site", object_name: str, version: int) -> Optional[int]:
        """The freshest readable peer — highest version, lowest site id on
        ties — if it is ahead of ``version``, the recovering copy's own
        durable one (a peer at or below it must never overwrite it)."""
        best: Optional[int] = None
        best_version = version
        sites = self.router.sites
        for sid in self.router.placement.sites_for(object_name):
            other = sites[sid]
            if other is site or not other.status.is_up or object_name in other.unreadable:
                continue
            other_version = self._version[sid].get(object_name, 0)
            if other_version > best_version:
                best, best_version = sid, other_version
        return best


class QuorumConsensus(_VersionedCatchUp):
    """Version-numbered read/write quorums (``R + W > N``, ``2W > N``).

    Reads contact ``R`` readable copies and serve the highest-version one;
    writes land at ``W`` live copies, all stamped with the same new version
    at durable commit.  Because any read quorum intersects any write
    quorum, a stale copy can participate in reads immediately — recovery
    needs no unreadable window, only the catch-up that makes the copy a
    useful quorum member again.  ``read_quorum``/``write_quorum`` default
    to majorities of each object's copy count.
    """

    name = "quorum"

    def __init__(
        self,
        read_quorum: Optional[int] = None,
        write_quorum: Optional[int] = None,
    ):
        super().__init__()
        self.read_quorum = read_quorum
        self.write_quorum = write_quorum
        #: Copy count -> validated (R, W); an invalid pair is never stored,
        #: so it raises on every use.
        self._validated: Dict[int, Tuple[int, int]] = {}

    def _quorums(self, object_name: str, placed: Sequence[int]) -> Tuple[int, int]:
        """Effective (R, W) for one object — rejected, never clamped.

        Explicit sizes outside ``[1, N]`` raise instead of being silently
        rewritten, so direct router users get exactly the same validation
        as :meth:`SimulationParameters.validate`; ``None`` defaults to a
        majority of the object's copy count.  Validated once per copy count.
        """
        n = len(placed)
        sizes = self._validated.get(n)
        if sizes is not None:
            return sizes
        majority = n // 2 + 1
        r = self.read_quorum if self.read_quorum is not None else majority
        w = self.write_quorum if self.write_quorum is not None else majority
        if not 1 <= r <= n or not 1 <= w <= n:
            raise SimulationError(
                f"quorum R={r}/W={w} must lie in [1, {n}] for {object_name!r} "
                f"({n} copies)"
            )
        if r + w <= n:
            raise SimulationError(
                f"quorum R={r} + W={w} must exceed the copy count N={n} "
                f"of {object_name!r}"
            )
        if 2 * w <= n:
            # Write quorums must intersect each other too, or two
            # concurrent writers can land on disjoint copies with no
            # scheduler seeing both — an unserialized lost update.
            raise SimulationError(
                f"write quorum W={w} must exceed half the copy count N={n} "
                f"of {object_name!r} (write quorums must intersect)"
            )
        self._validated[n] = r, w
        return r, w

    # ------------------------------------------------------------------
    def select_read(
        self, object_name: str, placed: Sequence[int], request: "GlobalRequest"
    ) -> List[int]:
        r, _ = self._quorums(object_name, placed)
        transaction = self.router.transactions.get(request.transaction_id)
        own = None if transaction is None else transaction.writes.get(object_name)
        # Read-your-writes: readable copies holding the reading transaction's
        # own uncommitted writes go first, so the quorum is guaranteed to
        # contain one (committed versions cannot rank a pending write).
        # Within each segment, quorum members are picked least-loaded-first
        # (like the available-copies read-one), hash-rotation position
        # breaking ties — a no-op without per-site hardware, so pinned
        # streams are unchanged.
        sites = self.router.sites
        ahead: List[int] = []
        behind: List[int] = []
        for sid in self._rotated(object_name, placed):
            site = sites[sid]
            if site.status.is_up and object_name not in site.unreadable:
                (ahead if own is not None and sid in own else behind).append(sid)
        if len(ahead) + len(behind) < r:
            return []
        if ahead:
            selected = (self._load_ranked(ahead) + self._load_ranked(behind))[:r]
        else:
            selected = self._load_ranked(behind)[:r]
        # Serve the value from the members that see the transaction's own
        # writes (they lead the quorum), else from any member: the freshest
        # committed version, the earlier position on ties.
        best_version = -1
        for sid in selected[: len(ahead)] or selected:
            version = self._version[sid].get(object_name, 0)
            if version > best_version:
                request.value_site = sid
                best_version = version
        self.stats.messages += r - 1
        return selected

    def select_write(
        self,
        object_name: str,
        placed: Sequence[int],
        transaction: Optional["GlobalTransaction"] = None,
    ) -> List[int]:
        _, w = self._quorums(object_name, placed)
        rotation = self._rotated(object_name, placed)
        if transaction is not None:
            # Sticky W-set: a repeat write of the same object must land on
            # the same copies as the transaction's earlier ones (they are
            # necessarily still alive — a site failure aborts its writers).
            # Re-selecting from current liveness could route the new write
            # past a copy the commit will nonetheless stamp as fresh,
            # breaking "version equality implies state equality".
            prior = transaction.writes.get(object_name)
            if prior:
                targets = [sid for sid in rotation if sid in prior]
                self.stats.messages += len(targets) - 1
                return targets
        sites = self.router.sites
        candidates = [sid for sid in rotation if sites[sid].status.is_up]
        if len(candidates) < w:
            return []
        self.stats.messages += w - 1
        return candidates[:w]

    # ------------------------------------------------------------------
    # Write durability (the 2PC commit protocol's W-ack condition)
    # ------------------------------------------------------------------
    def write_stamp_deficit(self, object_name: str, gtid: int) -> int:
        """Live stamped copies a transaction's write is short of ``W``.

        Zero means the write is durably ``W``-replicated.  A write whose
        commit target has not been assigned yet (no branch drained — every
        stamped copy died before draining) counts as fully missing.  A copy
        caught up beyond the target carries the write's effects too —
        versions only move through states that include their predecessors
        — so ``>=`` is the durable-coverage test.
        """
        placed = self.router.placement.sites_for(object_name)
        _, deficit = self._quorums(object_name, placed)
        targets = self._commit_targets.get(gtid)
        target = None if targets is None else targets.get(object_name)
        if target is None:
            return deficit
        sites = self.router.sites
        for sid in placed:
            if sites[sid].status.is_up and self._version[sid].get(object_name, 0) >= target:
                deficit -= 1
        return max(0, deficit)

    def restore_write_replication(self, names: Optional[Sequence[str]] = None) -> int:
        """Copy stamped committed state onto spare live replicas.

        For every (requested) object whose latest stamped version has
        fewer than ``W`` live stamped copies, the freshest live stamp is
        copied — committed state only, exactly like recovery catch-up — to
        additional live replicas (rotation order) until ``W`` is restored.
        A spare holding in-flight work is skipped (installing over
        uncommitted operations is unsafe); the restore is retried when
        that work finishes.  Returns the number of copies installed.
        """
        copied = 0
        sites = self.router.sites
        placement = self.router.placement
        versions = self._version
        for name in sorted(self._latest) if names is None else names:
            latest = self._latest.get(name, 0)
            if latest == 0:
                continue
            placed = placement.sites_for(name)
            if len(placed) <= 1:
                continue
            _, w = self._quorums(name, placed)
            stamped = [
                sid
                for sid in placed
                if sites[sid].status.is_up and versions[sid].get(name, 0) >= latest
            ]
            if not stamped or len(stamped) >= w:
                continue  # nothing live to copy from, or already replicated
            source_id = stamped[0]
            state = sites[source_id].committed_snapshot([name]).get(name)
            source_version = versions[source_id][name]
            for sid in self._rotated(name, placed):
                if len(stamped) >= w:
                    break
                site = sites[sid]
                if (
                    sid in stamped
                    or not site.status.is_up
                    or site.has_uncommitted(name)
                ):
                    continue
                site.install_committed(name, state)
                versions[sid][name] = source_version
                stamped.append(sid)
                copied += 1
        if copied:
            self.stats.messages += copied
        return copied

    def on_transaction_finished(self, transaction: "GlobalTransaction") -> None:
        # Audit the reported commit before the targets are released: each
        # written object below W live stamped copies at report time is one
        # opening of the under-replication window (the number the commit
        # protocols trade against latency).
        if transaction.status is _COMMITTED:
            for name in transaction.writes:
                if self.write_stamp_deficit(name, transaction.gtid) > 0:
                    self.stats.under_replicated_window += 1
        self._refresh_after(transaction)


class PrimaryCopy(_VersionedCatchUp):
    """Writes funnel through a primary, reads come from any live replica.

    Each placement (set of sites holding an object) has one primary at a
    time, elected lazily as the lowest live site id and re-elected — the
    *failover* — the moment a sitting primary crashes.  Writes execute at
    the primary first and propagate eagerly to every live backup, so any
    live replica can serve reads; recovery catch-up copies committed state
    from the freshest live replica, and a recovered copy whose own durable
    state already matches the highest committed version (no writes landed
    while it was down) is readable immediately even with no live peer.
    """

    name = "primary-copy"

    def __init__(self) -> None:
        super().__init__()
        #: Placement tuple -> currently elected primary site id.
        self._primaries: Dict[Tuple[int, ...], int] = {}

    def primary_of(self, object_name: str) -> Optional[int]:
        """The current primary for an object (electing one if needed)."""
        placed = tuple(self.router.placement.sites_for(object_name))
        live = [sid for sid in placed if self.router.sites[sid].status.is_up]
        return self._primary_for(placed, live)

    def _primary_for(
        self, placed: Tuple[int, ...], live: Sequence[int]
    ) -> Optional[int]:
        current = self._primaries.get(placed)
        if current is not None and self.router.sites[current].status.is_up:
            return current
        if not live:
            self._primaries.pop(placed, None)
            return None
        # Initial (or post-outage) election; not counted as a failover —
        # those are re-elections forced by a sitting primary's crash.
        elected = min(live)
        self._primaries[placed] = elected
        return elected

    # ------------------------------------------------------------------
    def select_write(
        self,
        object_name: str,
        placed: Sequence[int],
        transaction: Optional["GlobalTransaction"] = None,
    ) -> List[int]:
        sites = self.router.sites
        live = [sid for sid in placed if sites[sid].writable(object_name)]
        if not live:
            return []
        primary = self._primary_for(tuple(placed), live)
        if primary is None or not sites[primary].writable(object_name):
            return []
        # The primary orders the write, then propagates to every live backup.
        targets = [primary] + [sid for sid in live if sid != primary]
        self.stats.messages += len(targets) - 1
        return targets

    def on_site_failed(self, site_id: int) -> None:
        """Deterministic failover: re-elect where the dead site was primary."""
        for placed, primary in list(self._primaries.items()):
            if primary != site_id:
                continue
            live = [sid for sid in placed if self.router.sites[sid].status.is_up]
            if live:
                self._primaries[placed] = min(live)
                self.stats.failovers += 1
                self.stats.messages += max(0, len(live) - 1)
            else:
                del self._primaries[placed]


_PROTOCOLS = {
    protocol.name: protocol
    for protocol in (AvailableCopies, QuorumConsensus, PrimaryCopy)
}


def make_replication_protocol(
    kind: str,
    read_quorum: Optional[int] = None,
    write_quorum: Optional[int] = None,
) -> ReplicationProtocol:
    """Construct the replication protocol named by ``kind``.

    ``kind`` is one of ``"available-copies"``, ``"quorum"`` or
    ``"primary-copy"`` (the value of the ``replication_protocol`` simulation
    parameter and of the CLI's ``--replication-protocol`` flag); the quorum
    sizes only apply to — and are only accepted for — the quorum protocol.
    """
    try:
        protocol = _PROTOCOLS[kind]
    except KeyError:
        raise SimulationError(
            f"unknown replication protocol {kind!r} "
            f"(expected one of {sorted(_PROTOCOLS)})"
        ) from None
    if protocol is QuorumConsensus:
        return QuorumConsensus(read_quorum=read_quorum, write_quorum=write_quorum)
    if read_quorum is not None or write_quorum is not None:
        raise SimulationError(
            f"read/write quorum sizes only apply to the 'quorum' protocol, "
            f"not {kind!r}"
        )
    return protocol()
