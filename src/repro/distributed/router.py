"""The transaction router: global transactions over per-site schedulers.

The :class:`TransactionRouter` is the multi-site counterpart of
:class:`~repro.core.scheduler.Scheduler`: it owns *global* transaction ids and
fans operations out to the per-site schedulers that the
:class:`~repro.distributed.placement.PlacementPolicy` says hold a copy of the
target object.  *Which* copies an operation executes at — and what failure
and recovery mean for a copy — is decided by a pluggable
:class:`~repro.distributed.replication.ReplicationProtocol`:

* :class:`~repro.distributed.replication.AvailableCopies` (the default) —
  read-one / write-all-available with the recovering-copy rule (a recovered
  replicated copy is unreadable until a committed write refreshes it);
* :class:`~repro.distributed.replication.QuorumConsensus` — version-numbered
  read/write quorums with ``R + W > N`` and catch-up recovery;
* :class:`~repro.distributed.replication.PrimaryCopy` — writes funnel
  through an elected primary, reads come from any live replica, with
  deterministic failover and catch-up recovery.

*When* a distributed commit may report durable is likewise pluggable — a
:class:`~repro.distributed.commit.CommitProtocol`:

* :class:`~repro.distributed.commit.OnePhase` (the default) — one commit
  fan-out, durable once every branch drained, a pseudo-committed branch
  lost with its site dropped from the commit-outstanding set (the
  extracted pre-refactor behaviour, bit-identical);
* :class:`~repro.distributed.commit.TwoPhase` — commit-time certification
  against the union dependency graph before any branch stamps durable,
  durability reported only once the replication protocol's write condition
  holds (``W`` live stamped copies under quorum consensus), and
  failure-triggered re-replication of under-stamped objects.

The router keeps the protocol-independent rules: when a site fails, its
scheduler state is lost and every global transaction that *wrote* to the site
(or whose in-flight operation is blocked there) aborts; completed
transactions survive, and what a pseudo-committed branch lost with the site
means for the commit is the commit protocol's call.

A global transaction lazily opens one *branch* (a local transaction) per site
it touches.  Branch-level protocol decisions stay with the per-site backends —
semantic recoverability or strict 2PL, unchanged — and the router aggregates
them: a global operation request (:class:`GlobalRequest`) has executed once
every branch executed; a protocol abort at any branch aborts the global
transaction everywhere; a global commit is durable once every branch durably
committed (branches may pseudo-commit locally and drain at different times).

Cross-site cycles (deadlocks or commit-dependency cycles spanning sites,
which no single site's graph can see) are caught two ways: a router-level
check on the union of the per-site dependency graphs after each fan-out (the
requester is the victim, matching the per-site victim rule), and
:meth:`TransactionRouter.sweep_global_cycles` — run periodically from an
engine event by the simulator — which catches cycles closed *outside* a
submit, e.g. by a queued request granted during another transaction's
termination cascade (the grant can add commit-dependency edges no submit
ever carried).  Both are gated on the per-site graphs' mutation counters so
conflict-free stretches cost nothing.

With ``site_count=1`` the router is a pass-through: one site, one branch per
transaction, no replication fan-out and no cross-site checks, reproducing the
centralized scheduler's decision stream bit for bit, on the same ``submit``
as every other site count.  (A centralized *simulation* builds no router at
all: :mod:`repro.sim.routing` hands it the scheduler directly.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Set, Tuple, Union

from ..core.compatibility import CompatibilitySpec
from ..core.errors import (
    ReproError,
    TransactionStateError,
    UnknownObjectError,
    UnknownOperationError,
)
from ..core.policy import ConflictPolicy
from ..core.requests import AbortReason, RequestHandle, RequestStatus
from ..core.scheduler import SchedulerListener, SchedulerStatistics
from ..core.specification import Event, Invocation, TypeSpecification
from ..core.transaction import TransactionStatus
from .commit import CommitProtocol, make_commit_protocol
from .cycles import UnionCycleDetector
from .placement import PlacementPolicy, make_placement
from .replication import ReplicationProtocol, make_replication_protocol
from .site import Site, _fold_stats

if TYPE_CHECKING:
    from ..core.backends import ConcurrencyControlBackend
    from ..sim.resources import ResourceCharger

__all__ = [
    "BranchRef",
    "GlobalRequest",
    "GlobalTransaction",
    "RouterStatistics",
    "TransactionRouter",
]


@dataclass(frozen=True, slots=True)
class BranchRef:
    """A local transaction at one site, pinned to a scheduler generation.

    The generation guards against a site that crashed and recovered between
    branch creation and use: local transaction ids restart on the recovered
    scheduler, so a stale ``(site, tid)`` pair must never be dereferenced.
    """

    local_tid: int
    generation: int


_EXECUTED = RequestStatus.EXECUTED
_BLOCKED = RequestStatus.BLOCKED
_ABORTED = RequestStatus.ABORTED
#: Transaction statuses the per-event paths compare against, bound once: an
#: attribute load on an ``Enum`` class costs CPython 3.11 about 100 ns, a
#: module global about 3.
_ACTIVE = TransactionStatus.ACTIVE
_PSEUDO_COMMITTED = TransactionStatus.PSEUDO_COMMITTED
_TERMINATED = (TransactionStatus.ABORTED, TransactionStatus.COMMITTED)
_ABORTABLE = (TransactionStatus.ACTIVE, TransactionStatus.BLOCKED)


@dataclass(slots=True)
class GlobalRequest:
    """Caller-visible result of one routed operation (all replica branches)."""

    transaction_id: int
    object_name: str
    invocation: Invocation
    #: Per-site handles returned by the branch schedulers.
    branch_handles: Dict[int, RequestHandle] = field(default_factory=dict)
    #: Set by the router when the global transaction aborts mid-request.
    failed: bool = False
    abort_reason: Optional[AbortReason] = None
    #: Site whose copy serves :attr:`value`, chosen by the replication
    #: protocol (quorum reads serve the highest-version quorum member);
    #: ``None`` falls back to the first executed branch.
    value_site: Optional[int] = None

    @property
    def executed(self) -> bool:
        """True once every replica branch has executed."""
        # Explicit loop over handle statuses: this property is the hottest
        # predicate in the router (checked after every submit and grant), and
        # the genexpr-plus-``all`` form costs a frame per call.
        if self.failed:
            return False
        handles = self.branch_handles
        if not handles:
            return False
        for handle in handles.values():
            if handle.status is not _EXECUTED:
                return False
        return True

    @property
    def blocked(self) -> bool:
        if self.failed:
            return False
        for handle in self.branch_handles.values():
            if handle.status is _BLOCKED:
                return True
        return False

    @property
    def aborted(self) -> bool:
        if self.failed:
            return True
        for handle in self.branch_handles.values():
            if handle.status is _ABORTED:
                return True
        return False

    @property
    def status(self) -> RequestStatus:
        if self.aborted:
            return RequestStatus.ABORTED
        if self.executed:
            return RequestStatus.EXECUTED
        return RequestStatus.BLOCKED

    @property
    def value(self) -> Any:
        """The operation's return value.

        The replication protocol may designate the copy the value comes from
        (:attr:`value_site`); otherwise the first executed branch serves it.
        """
        if self.value_site is not None:
            handle = self.branch_handles.get(self.value_site)
            if handle is not None and handle.status is _EXECUTED:
                return handle.value
        for handle in self.branch_handles.values():
            if handle.status is _EXECUTED:
                return handle.value
        return None


@dataclass(slots=True)
class GlobalTransaction:
    """Router-side record of one global transaction.

    :attr:`writes` is the transaction's one write record: object name -> the
    sites its writes of that object were routed to, filled by
    :meth:`TransactionRouter.submit` as each write fans out (a site joins
    just before its branch receives the write).  Every question about what
    the transaction wrote reads it directly: the failure-abort rule (did it
    write at the crashed site?), read-your-writes and the sticky write set of
    quorum consensus, the copies a durable branch commit stamps and makes
    readable (only writes that landed at *that* site), the two-phase
    durability check and the under-replication audit (its keys).
    """

    gtid: int
    label: Optional[str] = None
    status: TransactionStatus = TransactionStatus.ACTIVE
    #: The site this transaction's client sits at: work routed elsewhere pays
    #: the network cost ``msg_time`` (when a resource charger models one).
    home_site: int = 0
    #: Site id -> branch (lazily created on the first operation at the site).
    branches: Dict[int, BranchRef] = field(default_factory=dict)
    #: The write record (see the class docstring).
    writes: Dict[str, Set[int]] = field(default_factory=dict)
    #: The operation currently in flight (at most one, like the scheduler).
    current_request: Optional[GlobalRequest] = None
    #: After commit(): sites whose branch has not durably committed yet.
    outstanding: Optional[Set[int]] = None
    #: Re-entrancy guard while a global abort fans out.
    aborting: bool = False

    @property
    def tid(self) -> int:
        """Alias so global and local transactions read alike in tests."""
        return self.gtid

    def require(self, *allowed: TransactionStatus) -> None:
        if self.status not in allowed:
            raise TransactionStateError(
                f"global transaction {self.gtid} is {self.status.value}; expected "
                f"one of {[status.value for status in allowed]}"
            )


@dataclass
class RouterStatistics:
    """Router-level counters (global events, not per-branch ones)."""

    begins: int = 0
    commits: int = 0
    pseudo_commits: int = 0
    aborts: int = 0
    unavailable_aborts: int = 0
    #: Unavailability split by operation class: the replication protocols
    #: trade these off (available-copies loses reads to the unreadable
    #: window, quorums lose writes below ``W`` live copies).
    read_unavailable_aborts: int = 0
    write_unavailable_aborts: int = 0
    site_failure_aborts: int = 0
    cross_site_deadlock_aborts: int = 0
    cross_site_cycle_checks: int = 0
    #: Periodic union-graph sweeps that actually ran (mutation-gated).
    cycle_sweeps: int = 0
    site_failures: int = 0
    site_recoveries: int = 0


class _SiteRelay(SchedulerListener):
    """Translates one site scheduler's callbacks into router bookkeeping."""

    def __init__(self, router: "TransactionRouter", site: Site):
        self.router = router
        self.site = site

    def on_granted(self, transaction_id: int, handle: RequestHandle, event: Event) -> None:
        self.router._on_local_granted(self.site, transaction_id, handle, event)

    def on_aborted(self, transaction_id: int, reason: AbortReason) -> None:
        self.router._on_local_aborted(self.site, transaction_id, reason)

    def on_committed(self, transaction_id: int) -> None:
        self.router._on_local_committed(self.site, transaction_id)


class TransactionRouter:
    """Routes global transactions over per-site schedulers.

    The constructor mirrors :class:`~repro.core.scheduler.Scheduler` where the
    concepts coincide (``policy``, ``fair``, ``retain_terminated``) and adds
    the multi-site knobs: ``site_count``, ``replication`` (a placement kind —
    ``"single"``, ``"hash"`` or ``"copies"`` — or a
    :class:`~repro.distributed.placement.PlacementPolicy` instance),
    ``replication_protocol`` (a protocol kind — ``"available-copies"``,
    ``"quorum"`` or ``"primary-copy"`` — or a
    :class:`~repro.distributed.replication.ReplicationProtocol` instance,
    with ``quorum_read``/``quorum_write`` sizing the quorums),
    ``commit_protocol`` (``"one-phase"`` or ``"two-phase"`` — or a
    :class:`~repro.distributed.commit.CommitProtocol` instance, with
    ``prepare_timeout`` bounding the two-phase durability wait) and an
    optional ``backend_factory`` constructing one backend per site.
    """

    def __init__(
        self,
        site_count: int = 1,
        replication: Union[str, PlacementPolicy] = "single",
        policy: ConflictPolicy = ConflictPolicy.RECOVERABILITY,
        fair: bool = True,
        retain_terminated: bool = True,
        backend_factory: Optional[Callable[[], "ConcurrencyControlBackend"]] = None,
        replication_protocol: Union[str, ReplicationProtocol] = "available-copies",
        quorum_read: Optional[int] = None,
        quorum_write: Optional[int] = None,
        commit_protocol: Union[str, CommitProtocol] = "one-phase",
        prepare_timeout: Optional[float] = None,
    ):
        if isinstance(replication, PlacementPolicy):
            self.placement = replication
        else:
            self.placement = make_placement(replication, site_count)
        if self.placement.site_count != site_count:
            raise ReproError(
                f"placement covers {self.placement.site_count} sites, router has {site_count}"
            )
        if isinstance(replication_protocol, ReplicationProtocol):
            self.replication = replication_protocol
        else:
            self.replication = make_replication_protocol(
                replication_protocol,
                read_quorum=quorum_read,
                write_quorum=quorum_write,
            )
        self.replication.attach(self)
        if isinstance(commit_protocol, CommitProtocol):
            if prepare_timeout is not None:
                raise ReproError(
                    "prepare_timeout cannot accompany a commit protocol "
                    "instance; configure the instance directly"
                )
            self.commit_protocol = commit_protocol
        else:
            self.commit_protocol = make_commit_protocol(
                commit_protocol, prepare_timeout=prepare_timeout
            )
        self.commit_protocol.attach(self)
        self.site_count = site_count
        self.policy = policy
        self.retain_terminated = retain_terminated
        self.sites: List[Site] = [
            Site(
                site_id,
                policy=policy,
                fair=fair,
                backend_factory=backend_factory,
            )
            for site_id in range(site_count)
        ]
        self.transactions: Dict[int, GlobalTransaction] = {}
        self.router_stats = RouterStatistics()
        for site in self.sites:
            # Subscribed once for the site's lifetime: recovery and reset
            # happen in place and keep the scheduler's listeners.
            site.scheduler.add_listener(_SiteRelay(self, site))
        #: Per-site map of local transaction id -> global transaction id.
        self._local_map: List[Dict[int, int]] = [{} for _ in range(site_count)]
        #: Object name -> type specification (read/write classification).
        self._specs: Dict[str, TypeSpecification] = {}
        #: Object name -> {op name -> is_read_only}, filled lazily: submit
        #: consults this instead of re-resolving the operation spec (and
        #: absorbing its try/except) per request.  Read-only-ness is the
        #: spec's, so a spec's objects share one cache (``_read_only_by_spec``).
        self._read_only_by_op: Dict[str, Dict[str, bool]] = {}
        self._read_only_by_spec: Dict[TypeSpecification, Dict[str, bool]] = {}
        self._listeners: List[SchedulerListener] = []
        self._next_gtid = 0
        #: Where granted operations are charged for hardware/network time
        #: (a :class:`~repro.sim.resources.ResourceCharger`); ``None`` until
        #: a simulation attaches one — the router's protocol decisions never
        #: depend on it, only the timing of the physical phase does.
        self._charger: Optional["ResourceCharger"] = None
        #: All union-graph cycle checks — the per-submit check, the periodic
        #: sweep and the commit-time certification — plus the sweep's
        #: monotonic mutation gate (see :mod:`repro.distributed.cycles`).
        self._cycles = UnionCycleDetector(self)
        #: Why nothing completes: the wedge report a stalled run raises.
        self.stall_report = self._cycles.stall_report

    # ------------------------------------------------------------------
    # Setup (Scheduler-compatible, so workloads can register blindly)
    # ------------------------------------------------------------------
    def register_objects(
        self, spec: TypeSpecification, tables: Mapping[str, Optional[CompatibilitySpec]], *,
        initial_state: Any = None, materialize_state: bool = True,
    ) -> None:
        """Place the copies of each object named in ``tables`` (name ->
        compatibility tables, ``None`` for the type's own) according to the
        placement policy, which is asked once per name.  The names are
        grouped by the site tuple they are placed on, and each site gets one
        :meth:`Site.register_objects` call per (site, replicated) group."""
        self._specs.update(dict.fromkeys(tables, spec))
        read_only = self._read_only_by_spec.setdefault(spec, {})
        self._read_only_by_op.update(dict.fromkeys(tables, read_only))
        placed: Dict[Tuple[int, ...], Dict[str, Optional[CompatibilitySpec]]] = {}
        for name, compatibility in tables.items():
            sites = self.placement.sites_for(name)
            group = placed.get(sites)
            if group is None:
                group = placed[sites] = {}
            group[name] = compatibility
        groups: Dict[Tuple[int, bool], Dict[str, Optional[CompatibilitySpec]]] = {}
        for sites, group in placed.items():
            for site_id in sites:
                key = site_id, len(sites) > 1
                groups[key] = {**groups[key], **group} if key in groups else group
        for (site_id, replicated), group in groups.items():
            self.sites[site_id].register_objects(
                spec, group, initial_state=initial_state,
                materialize_state=materialize_state, replicated=replicated,
            )

    def register_object(
        self,
        name: str,
        spec: TypeSpecification,
        compatibility: Optional[CompatibilitySpec] = None,
        initial_state: Any = None,
        materialize_state: bool = True,
    ) -> None:
        """Place an object's copies: the batch of one of :meth:`register_objects`."""
        self.register_objects(
            spec, {name: compatibility},
            initial_state=initial_state, materialize_state=materialize_state,
        )

    def add_listener(self, listener: SchedulerListener) -> None:
        """Subscribe a listener to *global* transaction events."""
        self._listeners.append(listener)

    def reset(self) -> None:
        """Restore the router to its just-constructed, just-registered state.

        Everything structural is kept — object registrations, placement,
        protocol instances, listeners — while all per-run state (transactions,
        scheduler contents, protocol bookkeeping, statistics) rewinds to what
        a fresh build would hold.  The resource charger is *not* kept: it has
        queueing state of its own, so callers re-attach one (the simulator
        rebuilds it per run) before charging operations again.
        """
        for site in self.sites:
            site.reset()
        self.transactions.clear()
        self.router_stats = RouterStatistics()
        for local in self._local_map:
            local.clear()
        self._next_gtid = 0
        self._charger = None
        self.replication.reset()
        self.commit_protocol.reset()
        self._cycles.reset()

    def attach_resources(self, charger: "ResourceCharger") -> None:
        """Wire up the hardware granted operations are charged to.

        ``charger`` is a :class:`~repro.sim.resources.ResourceCharger`; a
        per-site charger additionally hands each site its own
        :class:`~repro.sim.resources.ResourceDomain` so replica selection
        can prefer the least-loaded copy.
        """
        self._charger = charger
        domains = getattr(charger, "domains", None)
        if domains is not None:
            if len(domains) != self.site_count:
                raise ReproError(
                    f"charger has {len(domains)} domains, router has "
                    f"{self.site_count} sites"
                )
            for site, domain in zip(self.sites, domains):
                site.attach_domain(domain)

    # ------------------------------------------------------------------
    # Resource charging (the physical phase of a granted operation)
    # ------------------------------------------------------------------
    def perform_step(
        self, transaction_id: int, done: Union[Callable[[], None], tuple]
    ) -> None:
        """Charge the transaction's in-flight granted operation.

        Delegates to the attached charger with the sites whose replicas
        executed the operation and the transaction's home site; ``done``
        fires when the physical phase (CPU/disk service plus any network
        delay) completes.  ``done`` may be a typed engine member (a
        ``(kind, *payload)`` tuple) — the charger schedules or dispatches
        it through the engine's kind table.
        """
        charger = self._charger
        if charger is None:
            raise ReproError("no resource charger attached to the router")
        transaction = self.transactions.get(transaction_id)
        if transaction is None:
            raise TransactionStateError(
                f"unknown global transaction {transaction_id}"
            )
        request = transaction.current_request
        if request is None or not request.executed:
            raise TransactionStateError(
                f"global transaction {transaction.gtid} has no executed "
                "operation to charge resources for"
            )
        charger.perform_operation(request.branch_handles, transaction.home_site, done)

    def commit_network_delay(self, transaction_id: int) -> float:
        """Network delay of fanning this transaction's commit to its branches.

        The commit protocol decides how many message rounds the fan-out
        costs: one for the one-shot fan-out, two under 2PC (prepare, then
        commit) — each charged to the network model separately.
        """
        if self._charger is None:
            return 0.0
        transaction = self.transactions.get(transaction_id)
        if transaction is None:
            raise TransactionStateError(
                f"unknown global transaction {transaction_id}"
            )
        total = 0.0
        for _ in range(self.commit_protocol.network_rounds):
            total += self._charger.commit_network_delay(
                transaction.branches, transaction.home_site
            )
        return total

    # ------------------------------------------------------------------
    # Aggregated statistics
    # ------------------------------------------------------------------
    @property
    def stats(self) -> SchedulerStatistics:
        """Scheduler counters summed over every site (crashes included).

        With replication, branch-level counters (blocks, aborts, operation
        executions) count once per replica; the router-level
        :attr:`router_stats` holds the once-per-global-transaction view.
        """
        total = SchedulerStatistics()
        for site in self.sites:
            _fold_stats(total, site.stats)
        return total

    def replication_summary(self) -> Dict[str, int]:
        """Deterministic replication-protocol counters for this run.

        Empty for the centralized ``site_count=1`` configuration (there is
        no replication to account for, and the pinned single-site counter
        sets must stay closed); multi-site runs report the protocol's
        message/failover/catch-up overhead plus the router's availability
        and sweep counters.  Feeds the ``replication_*`` counters of
        :meth:`repro.sim.metrics.RunMetrics.counters`.
        """
        if self.site_count == 1:
            return {}
        stats = self.replication.stats
        return {
            "messages": stats.messages,
            "failovers": stats.failovers,
            "catchups": stats.catchups,
            "catchup_objects": stats.catchup_objects,
            "read_unavailable_aborts": self.router_stats.read_unavailable_aborts,
            "write_unavailable_aborts": self.router_stats.write_unavailable_aborts,
            "site_failure_aborts": self.router_stats.site_failure_aborts,
            "cycle_sweeps": self.router_stats.cycle_sweeps,
            "under_replicated_window": stats.under_replicated_window,
        }

    def commit_summary(self) -> Dict[str, int]:
        """Deterministic commit-protocol counters for this run.

        Empty for the centralized ``site_count=1`` configuration (a local
        commit needs no coordination, and the pinned single-site counter
        sets must stay closed); multi-site runs report the protocol's
        prepare/ack traffic, certification outcomes and re-replication
        work.  Feeds the ``commit_*`` counters of
        :meth:`repro.sim.metrics.RunMetrics.counters`.
        """
        if self.site_count == 1:
            return {}
        stats = self.commit_protocol.stats
        return {
            "prepare_rounds": stats.prepare_rounds,
            "prepare_messages": stats.prepare_messages,
            "prepare_acks": stats.prepare_acks,
            "certifications": stats.certifications,
            "certification_aborts": stats.certification_aborts,
            "re_replications": stats.re_replications,
            "re_replicated_objects": stats.re_replicated_objects,
            "forced_reports": stats.forced_reports,
        }

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(
        self, label: Optional[str] = None, home_site: Optional[int] = None
    ) -> GlobalTransaction:
        """Start a new global transaction (branches open lazily per site).

        ``home_site`` is where the transaction's client sits (the origin of
        its network traffic); by default clients are spread round-robin over
        the sites, which with one site is always site 0.
        """
        self._next_gtid += 1
        if home_site is None:
            home_site = (self._next_gtid - 1) % self.site_count
        elif not 0 <= home_site < self.site_count:
            raise ReproError(
                f"home_site {home_site} outside [0, {self.site_count})"
            )
        transaction = GlobalTransaction(
            gtid=self._next_gtid, label=label, home_site=home_site
        )
        self.transactions[transaction.gtid] = transaction
        self.router_stats.begins += 1
        return transaction

    def transaction(self, transaction_id: int) -> GlobalTransaction:
        try:
            return self.transactions[transaction_id]
        except KeyError:
            raise TransactionStateError(
                f"unknown global transaction {transaction_id}"
            ) from None

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def perform(
        self, transaction_id: int, object_name: str, op: str, *args: Any
    ) -> GlobalRequest:
        """Route ``op(*args)`` on ``object_name`` (read-one / write-all)."""
        return self.submit(transaction_id, object_name, Invocation(op, tuple(args)))

    def submit(
        self, transaction_id: int, object_name: str, invocation: Invocation
    ) -> GlobalRequest:
        """Route a prebuilt invocation to the replicas of ``object_name``."""
        transaction = self.transactions.get(transaction_id)
        if transaction is None:
            raise TransactionStateError(
                f"unknown global transaction {transaction_id}"
            )
        if transaction.status is not _ACTIVE:
            transaction.require(_ACTIVE)
        previous = transaction.current_request
        if previous is not None and previous.blocked:
            # Mirror the centralized scheduler: a transaction whose last
            # request is still queued cannot issue another one.  Reject
            # before any branch is touched — a partial fan-out would leave
            # replicas divergent.
            raise TransactionStateError(
                f"global transaction {transaction.gtid} has a blocked request "
                f"on {previous.object_name!r}; it cannot issue another operation"
            )
        read_only_by_op = self._read_only_by_op.get(object_name)
        if read_only_by_op is None:
            raise UnknownObjectError(object_name)
        request = GlobalRequest(
            transaction_id=transaction_id,
            object_name=object_name,
            invocation=invocation,
        )
        transaction.current_request = request
        placed = self.placement.sites_for(object_name)
        # Cross-site cycles can only be closed by a dependency edge added
        # during this fan-out; snapshot the target graphs' mutation counters
        # so the (comparatively expensive) union-graph DFS below can be
        # skipped for the common conflict-free operation.  With one site no
        # cross-site cycle can exist — skip the snapshot machinery outright.
        sites = self.sites
        mutations_before = 0
        if self.site_count > 1:
            for sid in placed:
                site = sites[sid]
                if site.status.is_up:
                    mutations_before += site.scheduler.graph.mutations

        is_read_only = read_only_by_op.get(invocation.op)
        if is_read_only is None:
            is_read_only = self._is_read_only(object_name, invocation)
        if is_read_only:
            # The protocol picks the read replica set: one readable copy
            # under available-copies and primary-copy (stable-hash rotation,
            # least-loaded tie-break), ``R`` copies under quorum consensus.
            # With one site this always picks site 0.
            targets = self.replication.select_read(object_name, placed, request)
            if not targets:
                self.router_stats.read_unavailable_aborts += 1
                self._unavailable(transaction, request)
                return request
            for sid in targets:
                if transaction.status is not _ACTIVE:
                    break  # a branch abort cascaded into a global abort
                self._submit_branch(transaction, sites[sid], request)
        else:
            targets = self.replication.select_write(object_name, placed, transaction)
            if not targets:
                self.router_stats.write_unavailable_aborts += 1
                self._unavailable(transaction, request)
                return request
            routed = transaction.writes.get(object_name)
            if routed is None:
                routed = transaction.writes[object_name] = set()
            for sid in targets:
                if transaction.status is not _ACTIVE:
                    break  # a branch abort cascaded into a global abort
                routed.add(sid)
                self._submit_branch(transaction, sites[sid], request)

        if (
            self.site_count > 1
            and transaction.status is _ACTIVE
            and request.branch_handles
            and not request.failed
        ):
            # No site changes liveness inside a submit, so this re-reads
            # exactly the graphs snapshotted above.
            mutations_after = 0
            for sid in placed:
                site = sites[sid]
                if site.status.is_up:
                    mutations_after += site.scheduler.graph.mutations
            if mutations_after != mutations_before:
                self.router_stats.cross_site_cycle_checks += 1
                if self._cycles.closes_cycle(transaction.gtid):
                    self.router_stats.cross_site_deadlock_aborts += 1
                    self._global_abort(transaction, AbortReason.DEADLOCK, request)
        return request

    def _submit_branch(
        self, transaction: GlobalTransaction, site: Site, request: GlobalRequest
    ) -> None:
        branch = transaction.branches.get(site.site_id)
        if branch is None or branch.generation != site.generation:
            local = site.scheduler.begin(label=transaction.label)
            branch = BranchRef(local_tid=local.tid, generation=site.generation)
            transaction.branches[site.site_id] = branch
            self._local_map[site.site_id][local.tid] = transaction.gtid
        handle = site.scheduler.submit(
            branch.local_tid, request.object_name, request.invocation
        )
        request.branch_handles[site.site_id] = handle

    def _is_read_only(self, object_name: str, invocation: Invocation) -> bool:
        cache = self._read_only_by_op[object_name]
        op = invocation.op
        cached = cache.get(op)
        if cached is None:
            spec = self._specs[object_name]
            try:
                cached = spec.operation(op).is_read_only
            except UnknownOperationError:
                cached = False
            cache[op] = cached
        return cached

    def _unavailable(
        self, transaction: GlobalTransaction, request: GlobalRequest
    ) -> None:
        self.router_stats.unavailable_aborts += 1
        self._global_abort(transaction, AbortReason.SITE_UNAVAILABLE, request)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(self, transaction_id: int) -> TransactionStatus:
        """Commit at every branch; *when* that is durable is the commit
        protocol's call (one-phase: every branch drained; two-phase:
        certification plus the replication protocol's write condition)."""
        transaction = self.transactions.get(transaction_id)
        if transaction is None:
            raise TransactionStateError(
                f"unknown global transaction {transaction_id}"
            )
        if transaction.status is not _ACTIVE:
            transaction.require(_ACTIVE)
        request = transaction.current_request
        if request is not None and request.blocked:
            # Mirror the centralized scheduler: a transaction whose last
            # request is still queued cannot commit.  Reject before touching
            # any branch — committing some branches and then raising at the
            # blocked one would leave the replicas divergent.
            raise TransactionStateError(
                f"global transaction {transaction.gtid} has a blocked request "
                f"on {request.object_name!r}; it cannot commit"
            )
        return self.commit_protocol.commit(transaction)

    def _live_branches(self, transaction: GlobalTransaction) -> Set[int]:
        """Sites whose branch of the transaction can still receive a commit."""
        live: Set[int] = set()
        for site_id, branch in transaction.branches.items():
            site = self.sites[site_id]
            if (
                site.status.is_up
                and branch.generation == site.generation
                and site.scheduler.transactions.get(branch.local_tid) is not None
            ):
                live.add(site_id)
        return live

    def _record_pseudo_commit(self, transaction: GlobalTransaction) -> TransactionStatus:
        """The commit is complete for the caller but not yet durable."""
        transaction.status = _PSEUDO_COMMITTED
        self.router_stats.pseudo_commits += 1
        for listener in self._listeners:
            listener.on_pseudo_committed(transaction.gtid)
        return _PSEUDO_COMMITTED

    def _finalize_commit(self, transaction: GlobalTransaction) -> None:
        transaction.status = TransactionStatus.COMMITTED
        self.router_stats.commits += 1
        for listener in self._listeners:
            listener.on_committed(transaction.gtid)
        self._finish(transaction)

    # ------------------------------------------------------------------
    # Abort
    # ------------------------------------------------------------------
    def abort(
        self, transaction_id: int, reason: AbortReason = AbortReason.USER
    ) -> None:
        """Abort a global transaction at every live branch."""
        transaction = self.transaction(transaction_id)
        transaction.require(TransactionStatus.ACTIVE)
        self._global_abort(transaction, reason)

    def _global_abort(
        self,
        transaction: GlobalTransaction,
        reason: AbortReason,
        request: Optional[GlobalRequest] = None,
    ) -> None:
        if transaction.aborting or transaction.status in _TERMINATED:
            return
        transaction.aborting = True
        request = request if request is not None else transaction.current_request
        if request is not None:
            request.failed = True
            request.abort_reason = reason
        for site_id in sorted(transaction.branches):
            branch = transaction.branches[site_id]
            site = self.sites[site_id]
            if not site.status.is_up or branch.generation != site.generation:
                continue
            local = site.scheduler.transactions.get(branch.local_tid)
            if local is None or local.status not in _ABORTABLE:
                continue
            site.scheduler.abort(branch.local_tid, reason)
            self._local_map[site_id].pop(branch.local_tid, None)
        transaction.status = TransactionStatus.ABORTED
        self.router_stats.aborts += 1
        if reason is AbortReason.SITE_FAILURE:
            self.router_stats.site_failure_aborts += 1
        for listener in self._listeners:
            listener.on_aborted(transaction.gtid, reason)
        self._finish(transaction)

    def _finish(self, transaction: GlobalTransaction) -> None:
        """Terminal bookkeeping shared by global commit and abort."""
        transaction.current_request = None
        sites = self.sites
        for site_id, branch in transaction.branches.items():
            # A branch older than its site's last crash: its tid may be reissued.
            if branch.generation != sites[site_id].generation:
                continue
            # A branch can outlive its global (2PC reports durable before every
            # branch drains): its edges leave the union with its map entry.
            if self._local_map[site_id].pop(branch.local_tid, None) is not None:
                self._cycles.unmapped(site_id, branch.local_tid)
        self.replication.on_transaction_finished(transaction)
        self.commit_protocol.on_transaction_finished(transaction)
        if not self.retain_terminated:
            self.transactions.pop(transaction.gtid, None)

    # ------------------------------------------------------------------
    # Site lifecycle
    # ------------------------------------------------------------------
    def fail_site(self, site_id: int) -> None:
        """Crash a site: its scheduler state is lost.

        Available-copies rule: every global transaction that wrote to the
        site (its uncommitted writes there are gone) or whose in-flight
        operation is blocked there (the queued request is gone) aborts.
        Completed transactions survive; what a pseudo-committed branch lost
        with the site means is the commit protocol's call — one-phase drops
        it from the outstanding set (its durable commit can no longer be
        reported, the surviving replicas carry its effects), two-phase
        keeps the durability requirement and re-replicates under-stamped
        objects to spare live replicas.
        """
        site = self.sites[site_id]
        if not site.status.is_up:
            raise ReproError(f"site {site_id} is already down")
        generation = site.generation
        affected = [
            transaction
            for transaction in list(self.transactions.values())
            if site_id in transaction.branches
            and transaction.branches[site_id].generation == generation
        ]
        self._local_map[site_id].clear()
        self._cycles.site_failed(site_id)
        site.fail()
        self.router_stats.site_failures += 1
        self.replication.on_site_failed(site_id)
        for transaction in affected:
            if transaction.status in _TERMINATED:
                continue
            if transaction.status is _PSEUDO_COMMITTED:
                self.commit_protocol.on_pseudo_branch_lost(transaction, site_id)
                continue
            request = transaction.current_request
            branch_handle = (
                request.branch_handles.get(site_id) if request is not None else None
            )
            if any(site_id in sites for sites in transaction.writes.values()) or (
                branch_handle is not None and branch_handle.blocked
            ):
                self._global_abort(transaction, AbortReason.SITE_FAILURE)
            else:
                # Read-only contact with the lost site: the values are already
                # in hand and other replicas back them; just drop the branch.
                transaction.branches.pop(site_id, None)
        # The commit protocol reacts last, with the fallout settled: 2PC
        # re-replicates under-stamped objects to spare live replicas and
        # re-checks the commits it is holding for their W stamps.
        self.commit_protocol.on_site_failed(site_id)

    def recover_site(self, site_id: int) -> None:
        """Bring a failed site back up.

        What the recovered copies are worth is the protocol's call: under
        available-copies they stay unreadable until a committed write lands
        (see :meth:`Site.recover`); quorum consensus and primary-copy catch
        the site up from a live replica so its copies serve reads at once.
        """
        site = self.sites[site_id]
        site.recover()
        self._cycles.watch(site)
        self.router_stats.site_recoveries += 1
        self.replication.on_site_recovered(site)
        # After the catch-up: recovered stamps may satisfy a held 2PC commit.
        self.commit_protocol.on_site_recovered(site)

    # ------------------------------------------------------------------
    # Relay handlers (local scheduler events -> global bookkeeping)
    # ------------------------------------------------------------------
    def _on_local_granted(
        self, site: Site, local_tid: int, handle: RequestHandle, event: Event
    ) -> None:
        gtid = self._local_map[site.site_id].get(local_tid)
        if gtid is None:
            return
        transaction = self.transactions.get(gtid)
        if transaction is None or transaction.status is not _ACTIVE:
            return
        request = transaction.current_request
        if (
            request is None
            or request.failed
            or request.branch_handles.get(site.site_id) is not handle
        ):
            return
        if request.executed:
            for listener in self._listeners:
                listener.on_granted(gtid, request, event)

    def _on_local_aborted(self, site: Site, local_tid: int, reason: AbortReason) -> None:
        gtid = self._local_map[site.site_id].pop(local_tid, None)
        if gtid is None:
            return
        transaction = self.transactions.get(gtid)
        if (
            transaction is None
            or transaction.aborting
            or transaction.status in _TERMINATED
        ):
            return
        # A protocol abort at one branch (deadlock or dependency-cycle
        # victim) aborts the global transaction at every other branch.
        self._global_abort(transaction, reason)

    def _on_local_committed(self, site: Site, local_tid: int) -> None:
        gtid = self._local_map[site.site_id].pop(local_tid, None)
        if gtid is None:
            return
        transaction = self.transactions.get(gtid)
        if transaction is None:
            return
        # The replication protocol reacts to the durable local commit first
        # (available-copies marks recovering copies the transaction wrote
        # here readable again, quorum consensus additionally stamps the new
        # copy versions), then the commit protocol treats it as the
        # branch's ack and decides whether the global commit is durable.
        self.replication.on_branch_committed(site, transaction)
        self.commit_protocol.on_branch_committed(site, transaction)

    # ------------------------------------------------------------------
    # Cross-site cycle detection (delegated to the UnionCycleDetector)
    # ------------------------------------------------------------------
    def sweep_global_cycles(self) -> int:
        """Detect and break union-graph cycles closed outside a submit.

        Run periodically from an engine event by the simulator; see
        :meth:`repro.distributed.cycles.UnionCycleDetector.sweep` for the
        full story.  Returns the number of victims aborted.
        """
        return self._cycles.sweep()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_sites(self) -> List[int]:
        """Ids of the sites currently up."""
        return [site.site_id for site in self.sites if site.status.is_up]

    def object_state(self, name: str, site_id: Optional[int] = None) -> Any:
        """The visible state of one copy (default: first readable copy)."""
        if site_id is None:
            site_id = next(
                (sid for sid in self.placement.sites_for(name) if self.sites[sid].readable(name)),
                None,
            )
            if site_id is None:
                raise UnknownObjectError(f"{name}: no readable copy")
        return self.sites[site_id].scheduler.object_state(name)

    def committed_state(self, name: str, site_id: Optional[int] = None) -> Any:
        """The committed state of one copy (default: first readable copy)."""
        if site_id is None:
            site_id = next(
                (sid for sid in self.placement.sites_for(name) if self.sites[sid].readable(name)),
                None,
            )
            if site_id is None:
                raise UnknownObjectError(f"{name}: no readable copy")
        return self.sites[site_id].scheduler.committed_state(name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        up = len(self.live_sites())
        return (
            f"<TransactionRouter sites={self.site_count} up={up} "
            f"placement={self.placement.name!r} "
            f"protocol={self.replication.name!r} "
            f"commit={self.commit_protocol.name!r} policy={self.policy}>"
        )
