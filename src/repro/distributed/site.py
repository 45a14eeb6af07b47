"""A site: one scheduler, its objects, and an up/down/recovering lifecycle.

A :class:`Site` wraps what used to be the whole system — a
:class:`~repro.core.scheduler.Scheduler` with its object managers and a
concurrency-control backend — and adds the lifecycle the available-copies
replication protocol needs:

* **UP** — serving reads and writes normally;
* **DOWN** — crashed: the scheduler is parked out of reach (``scheduler`` is
  ``None``) and its volatile state — lock tables, dependency graph, blocked
  queues, uncommitted operation logs, transactions, counters — is discarded
  on recovery, exactly as a real site loses its memory but not its disk;
* **recovering** — back up, but every *replicated* object is unreadable until
  a committed write refreshes its copy (the available-copies rule); objects
  with a single copy have nothing to catch up from and are readable at once.

Recovery is modelled as an instantaneous transition back to UP with the
unreadable set populated; "recovering" is therefore a property of individual
copies (``Site.readable``) rather than a third scheduler state.  The router
clears a copy's unreadable flag when a transaction that wrote the object at
this site durably commits.

Recovery is *in place*: the same scheduler and object managers come back,
keeping what is durable or structural (committed states, compiled policy
tables, listeners), so a crash costs what it destroyed rather than a rebuild
of the database.

Statistics survive crashes: :attr:`Site.stats` is the sum of the live
scheduler's counters and the counters folded in at every crash, so
simulation metrics stay monotonic across failures.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Mapping, Optional, Set

from ..core.backends import ConcurrencyControlBackend
from ..core.errors import ReproError
from ..core.policy import ConflictPolicy
from ..core.scheduler import Scheduler, SchedulerStatistics
from ..core.specification import TypeSpecification
from ..core.compatibility import CompatibilitySpec

if TYPE_CHECKING:
    from ..sim.resources import ResourceDomain

__all__ = ["SiteStatus", "Site"]


class SiteStatus(enum.Enum):
    """Lifecycle state of a site."""

    UP = "up"
    DOWN = "down"

    def __init__(self, value: str) -> None:
        #: Liveness as data: read once per routed operation and replica, so
        #: a member attribute rather than a property call.
        self.is_up = value == "up"


def _fold_stats(into: SchedulerStatistics, stats: SchedulerStatistics) -> None:
    """Add every counter of ``stats`` onto ``into`` (both are int fields)."""
    for field in dataclasses.fields(SchedulerStatistics):
        setattr(into, field.name, getattr(into, field.name) + getattr(stats, field.name))


class Site:
    """One site of the multi-site system: a scheduler plus a lifecycle."""

    def __init__(
        self,
        site_id: int,
        policy: ConflictPolicy = ConflictPolicy.RECOVERABILITY,
        fair: bool = True,
        backend_factory: Optional[Callable[[], ConcurrencyControlBackend]] = None,
    ):
        self.site_id = site_id
        self.policy = policy
        self.status = SiteStatus.UP
        #: This site's hardware under per-site resource placement (a
        #: :class:`~repro.sim.resources.ResourceDomain`), attached by the
        #: router when a per-site charger is wired up; ``None`` while the
        #: system charges one shared global pool.  Hardware is physical, so
        #: it survives :meth:`fail`/:meth:`recover` — a crash loses volatile
        #: scheduler state, not the machines.
        self.domain: Optional["ResourceDomain"] = None
        #: Incremented on every crash; a (local tid, generation) pair uniquely
        #: identifies a transaction branch across crashes (local tids restart).
        self.generation = 0
        #: Replicated objects whose local copy awaits a committed write.
        self.unreadable: Set[str] = set()
        self.failures = 0
        self.recoveries = 0
        #: Every copy at this site -> whether the object has copies at other
        #: sites too (only those turn unreadable on recovery).  Whether a copy
        #: is materialized is its manager's ``materialize_state``.
        self._copies: Dict[str, bool] = {}
        self._retired_stats = SchedulerStatistics()
        #: ``None`` while the site is down (a stale dereference fails loudly);
        #: the crashed scheduler waits in ``_parked`` for :meth:`recover`.
        #: Local branch records go as they terminate; the router keeps the
        #: global transaction records.
        self.scheduler: Scheduler = Scheduler(
            policy=policy,
            fair=fair,
            retain_terminated=False,
            backend=None if backend_factory is None else backend_factory(),
        )
        self._parked: Optional[Scheduler] = None

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------
    def register_objects(
        self, spec: TypeSpecification, tables: Mapping[str, Optional[CompatibilitySpec]], *,
        initial_state: Any = None, materialize_state: bool = True, replicated: bool = False,
    ) -> None:
        """Place a copy of each object named in ``tables`` at this site
        (see :meth:`~repro.core.scheduler.Scheduler.register_objects`);
        ``replicated`` says whether other sites hold copies too."""
        self._copies.update(dict.fromkeys(tables, replicated))
        self.scheduler.register_objects(
            spec, tables, initial_state=initial_state, materialize_state=materialize_state
        )

    def holds(self, name: str) -> bool:
        """True when this site has a copy of the object (readable or not)."""
        return name in self._copies

    def readable(self, name: str) -> bool:
        """True when a read of ``name`` can be served at this site now."""
        return self.status.is_up and name not in self.unreadable and name in self._copies

    def writable(self, name: str) -> bool:
        """True when a write of ``name`` can be applied at this site now.

        Writes are accepted on unreadable (recovering) copies — a committed
        write is exactly what makes a copy readable again.
        """
        return self.status.is_up and name in self._copies

    def mark_readable(self, name: str) -> None:
        """A committed write refreshed the copy of ``name``."""
        self.unreadable.discard(name)

    def has_uncommitted(self, name: str) -> bool:
        """True while the copy of ``name`` holds uncommitted operations."""
        return self.status.is_up and bool(self.scheduler.object(name).live_transactions())

    # ------------------------------------------------------------------
    # Committed-state snapshots (catch-up recovery)
    # ------------------------------------------------------------------
    def committed_snapshot(self, names: Optional[Iterable[str]] = None) -> Dict[str, Any]:
        """Deep-copied committed states of this site's copies.

        Only *committed* state is snapshotted — uncommitted operations never
        leave the site — and only for materialized objects (the simulation
        workloads register theirs with ``materialize_state=False``: there is
        no executable state to copy).  This is what a recovering replica
        catches up from under the quorum and primary-copy protocols.
        """
        if not self.status.is_up:
            raise ReproError(f"site {self.site_id} is down; nothing to snapshot")
        selected = self._copies.keys() if names is None else names
        snapshot: Dict[str, Any] = {}
        for name in selected:
            manager = self.scheduler.object(name)
            if manager.materialize_state:
                snapshot[name] = copy.deepcopy(manager.committed_state)
        return snapshot

    def install_committed(self, name: str, state: Any) -> None:
        """Catch-up: overwrite one copy's committed state, making it readable.

        Only safe while the copy has no uncommitted operations — i.e. right
        after recovery, before any transaction touches the recovered scheduler —
        so installing onto a copy with in-flight work is rejected.
        """
        if not self.status.is_up:
            raise ReproError(f"site {self.site_id} is down; cannot install state")
        manager = self.scheduler.object(name)
        if manager.live_transactions():
            raise ReproError(
                f"site {self.site_id} has uncommitted operations on {name!r}; "
                "catch-up must happen before new work arrives"
            )
        if manager.materialize_state:
            manager.committed_state = state
            manager.current_state = state
        self.mark_readable(name)

    # ------------------------------------------------------------------
    # Resources
    # ------------------------------------------------------------------
    def attach_domain(self, domain: "ResourceDomain") -> None:
        """Give this site its own hardware (per-site resource placement)."""
        self.domain = domain

    @property
    def load(self) -> int:
        """Outstanding work at this site's hardware (0 without a domain)."""
        return 0 if self.domain is None else self.domain.load

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash the site: all *volatile* scheduler state is lost.

        The scheduler is parked out of reach until :meth:`recover` discards
        its volatile state (uncommitted operations, lock tables, blocked
        queues, the dependency graph).  Committed object states are durable
        — they survived to "disk" — and stay where they are.
        """
        if not self.status.is_up:
            raise ReproError(f"site {self.site_id} is already down")
        _fold_stats(self._retired_stats, self.scheduler.stats)
        self._parked = self.scheduler
        self.scheduler = None  # type: ignore[assignment]
        self.status = SiteStatus.DOWN
        self.generation += 1
        self.failures += 1
        self.unreadable.clear()

    def recover(self) -> None:
        """Bring the site back up on its durable state.

        The parked scheduler returns with everything volatile discarded and
        every copy at the committed state it held when the site went down.
        Every replicated object starts unreadable (available-copies: a copy
        that missed writes while down must not serve reads until a committed
        write lands); single-copy objects are readable immediately.
        """
        if self._parked is None:
            raise ReproError(f"site {self.site_id} is not down")
        self.scheduler, self._parked = self._parked, None
        self.scheduler.discard_volatile()
        for name, replicated in self._copies.items():
            if replicated:
                self.unreadable.add(name)
        self.status = SiteStatus.UP
        self.recoveries += 1

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def stats(self) -> SchedulerStatistics:
        """Cumulative counters: the live scheduler plus what crashes folded in."""
        total = SchedulerStatistics()
        _fold_stats(total, self._retired_stats)
        if self.scheduler is not None:
            _fold_stats(total, self.scheduler.stats)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Site {self.site_id} {self.status.value} "
            f"objects={len(self._copies)} unreadable={len(self.unreadable)}>"
        )
