"""The resource model: CPUs and disks with FIFO queues (Section 5.1).

The paper's model attaches a physical-resource phase to every operation once
the concurrency-control request is granted:

* under **infinite resources** each operation simply takes ``step_time`` of
  simulated time — there is never any waiting for hardware;
* under **finite resources** the system owns ``resource_units`` units, each a
  CPU plus two disks.  An operation first needs a CPU from the shared pool
  (waiting in a FIFO queue if none is free) for ``cpu_time`` seconds, then a
  randomly chosen disk (each disk has its own FIFO queue) for ``io_time``
  seconds.

The module models *where* that hardware lives as well as what it is:

* :class:`ResourceDomain` — one pool of hardware (a CPU pool plus disks, or
  an infinite-resource stand-in) with a ``perform_step(done)`` interface;
* :class:`GlobalResourceModel` — the paper's centralized configuration: one
  domain shared by every site, charged once per granted operation regardless
  of how many replicas executed it;
* :class:`PerSiteResources` — one :class:`ResourceDomain` per site, so each
  replica of a write is charged to the hardware of the site that executed it
  and a read only loads the one replica that served it.  Remote work
  additionally pays the network cost ``msg_time`` (zero for site-local
  work), which gives read-one/write-all-available routing its asymmetry.

A finite phase is three typed engine members, drained by module-level
handlers registered once per engine: ``perform_step`` takes a free CPU (or
queues ``done``) and schedules the CPU stage ``(kind, domain, done)``; that
stage frees the CPU to the longest waiter, draws the disk (one
``RandomSource.index``) and schedules the
I/O stage ``(kind, domain, disk, done)`` (or queues), which frees the disk,
drops the domain's ``load`` and runs ``done``.  Work away from the
transaction's home site first takes the remote hop ``(kind, domain, done)``.

Both placements implement the :class:`ResourceCharger` interface the
simulation's coordinator (:mod:`repro.sim.routing`) charges operations
through; :func:`make_resource_charger` picks the placement from
``SimulationParameters.resource_placement``.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Deque, Dict, Iterable, List, Optional

from .engine import EventEngine
from .params import SimulationParameters
from .random_source import RandomSource

#: An operation-phase continuation: a typed engine member ``(kind, *payload)``
#: whose kind was registered via ``EventEngine.register_kind``.
Done = tuple

__all__ = [
    "FifoServer",
    "ResourceDomain",
    "ResourceCharger",
    "GlobalResourceModel",
    "PerSiteResources",
    "make_resource_charger",
]


class FifoServer:
    """A pool of identical servers with a single FIFO wait queue.

    With ``capacity=1`` this is a single server (one disk); with a larger
    capacity it models the shared CPU pool.  A counter record: its domain's
    stages grant and release it; ``queue`` holds the waiting continuations.
    """

    __slots__ = ("name", "capacity", "free", "queue", "waits", "served")

    def __init__(self, name: str, capacity: int):
        self.name = name
        self.capacity = capacity
        self.free = capacity
        self.queue: Deque[Done] = deque()
        #: Total number of acquisitions that had to wait (utilisation metric).
        self.waits = 0
        #: Total number of acquisitions served.
        self.served = 0

    @property
    def busy(self) -> int:
        """Number of servers currently in use."""
        return self.capacity - self.free

    @property
    def load(self) -> int:
        """Work at this server pool: in service plus queued."""
        return self.capacity - self.free + len(self.queue)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FifoServer {self.name!r} busy={self.busy}/{self.capacity} queued={len(self.queue)}>"


def _cpu_finished(member: tuple) -> None:
    """CPU stage ``(kind, domain, done)``: free the CPU, then seek a disk."""
    kind, domain, done = member
    engine = domain.engine
    cpus = domain.cpus
    queue = cpus.queue
    if queue:
        cpus.served += 1
        engine.schedule(domain.cpu_time, (kind, domain, queue.popleft()))
    else:
        cpus.free += 1
    disks = domain.disks
    disk = disks[domain.rng.index(len(disks))]
    if disk.free:
        disk.free -= 1
        disk.served += 1
        engine.schedule(domain.io_time, (domain._kind_io, domain, disk, done))
    else:
        disk.waits += 1
        disk.queue.append(done)


def _io_finished(member: tuple) -> None:
    """I/O stage ``(kind, domain, disk, done)``: free the disk, then ``done``."""
    kind, domain, disk, done = member
    queue = disk.queue
    if queue:
        disk.served += 1
        domain.engine.schedule(domain.io_time, (kind, domain, disk, queue.popleft()))
    else:
        disk.free += 1
    # Before ``done``: it may route the next read, which picks by load.
    domain.load -= 1
    # ``EventEngine.dispatch`` inlined: every finite phase ends here.
    domain.engine.handlers[done[0]](done)


def _remote_arrived(member: tuple) -> None:
    """Remote hop ``(kind, domain, done)``: the work reached its site."""
    member[1].perform_step(member[2])


class ResourceDomain:
    """One pool of hardware: a CPU pool plus disks, or an infinite stand-in.

    This is the unit a :class:`~repro.distributed.site.Site` owns under
    per-site resource placement; the :class:`GlobalResourceModel` facade is a
    thin wrapper around one shared domain.  ``num_cpus=0`` selects the
    infinite-resource configuration (every step takes ``step_time`` with no
    queueing).

    A finite step runs the CPU stage, then the I/O stage (see the module
    docstring); the disk is drawn when the CPU stage ends, uniformly among
    the domain's disks.
    """

    def __init__(
        self,
        engine: EventEngine,
        rng: RandomSource,
        *,
        num_cpus: int,
        num_disks: int,
        cpu_time: float,
        io_time: float,
        step_time: float,
        name: str = "",
    ):
        self.engine = engine
        self.rng = rng
        self.name = name
        self.cpu_time = cpu_time
        self.io_time = io_time
        self.step_time = step_time
        #: Outstanding work at this domain (operations busy or queued at its
        #: CPUs and disks; always zero when infinite).  The router's
        #: least-loaded read-one selection ranks replicas by this.
        self.load = 0
        if num_cpus <= 0:
            self.cpus: Optional[FifoServer] = None
            self.disks: List[FifoServer] = []
        else:
            self.cpus = FifoServer(f"{name}cpus", num_cpus)
            self.disks = [FifoServer(f"{name}disk{i}", 1) for i in range(num_disks)]
            self._kind_cpu = engine.register_kind(_cpu_finished)
            self._kind_io = engine.register_kind(_io_finished)

    @property
    def infinite(self) -> bool:
        """True when this domain models no CPU/disk contention."""
        return self.cpus is None

    # ------------------------------------------------------------------
    def perform_step(self, done: Done) -> None:
        """Run the resource phase of one operation, then drain ``done``.

        Under infinite resources this is a single delay of ``step_time``
        (``done`` is scheduled as-is); under finite resources it is CPU
        service followed by disk service, each with possible queueing, and
        the I/O stage dispatches ``done`` when the disk releases.
        """
        cpus = self.cpus
        if cpus is None:
            self.engine.schedule(self.step_time, done)
            return
        self.load += 1
        if cpus.free:
            cpus.free -= 1
            cpus.served += 1
            self.engine.schedule(self.cpu_time, (self._kind_cpu, self, done))
        else:
            cpus.waits += 1
            cpus.queue.append(done)

    # ------------------------------------------------------------------
    def utilisation_summary(self) -> Dict[str, object]:
        """Rough utilisation counters (served / waited) for reporting."""
        if self.cpus is None:
            return {"resources": "infinite"}
        return {
            "cpu_served": self.cpus.served,
            "cpu_waits": self.cpus.waits,
            "disk_served": sum(d.served for d in self.disks),
            "disk_waits": sum(d.waits for d in self.disks),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.cpus is None:
            return f"<ResourceDomain {self.name!r} infinite>"
        return (
            f"<ResourceDomain {self.name!r} cpus={self.cpus.capacity} "
            f"disks={len(self.disks)} load={self.load}>"
        )


class ResourceCharger:
    """Where granted operations are charged for hardware and network time.

    The simulation's coordinator (:mod:`repro.sim.routing`) calls
    :meth:`perform_operation` once per granted global operation with the set
    of sites whose replicas executed it and the transaction's home site; the
    charger decides which hardware serves the work and what network delay
    applies, then drains ``done`` (a typed engine member) when the physical
    phase completes.
    """

    #: Network delay of one cross-site message (zero: no network model).
    msg_time: float = 0.0
    #: Messages sent across sites (remote submits and commit fan-outs).
    messages_sent: int = 0

    def perform_operation(
        self,
        executed_sites: Collection[int],
        home_site: int,
        done: Done,
    ) -> None:
        """Charge one granted operation's physical phase, then drain ``done``.

        ``executed_sites`` is a set (distinct site ids, no order): a charger
        that only counts uses ``len`` and ``in``, one that orders events sorts.
        """
        raise NotImplementedError

    def commit_network_delay(self, branch_sites: Iterable[int], home_site: int) -> float:
        """Network delay of the commit fan-out to the transaction's branches.

        Zero when every branch is home-site local (or ``msg_time`` is zero);
        one ``msg_time`` otherwise — the fan-out messages travel in parallel.
        """
        if self.msg_time > 0:
            remote = sum(1 for sid in branch_sites if sid != home_site)
            if remote:
                self.messages_sent += remote
                return self.msg_time
        return 0.0

    def utilisation_summary(self) -> Dict[str, object]:
        raise NotImplementedError


class GlobalResourceModel(ResourceCharger):
    """CPU/disk service for operation steps from one shared pool.

    The paper's centralized configuration: all sites draw on the same
    hardware, and a granted operation is charged once no matter how many
    replica branches executed it — adding sites adds coordination, never
    capacity.  No network events exist while ``msg_time`` is zero, which
    keeps the pinned ``sites=1`` runs reproducible.
    """

    def __init__(
        self,
        engine: EventEngine,
        params: SimulationParameters,
        rng: RandomSource,
    ):
        self.engine = engine
        self.params = params
        self.rng = rng
        self.msg_time = params.msg_time
        self.messages_sent = 0
        self._domain = ResourceDomain(
            engine,
            rng,
            num_cpus=params.num_cpus,
            num_disks=params.num_disks,
            cpu_time=params.cpu_time,
            io_time=params.io_time,
            step_time=params.step_time,
        )
        # Fused charge path for the paper's reference configuration: with no
        # network model and infinite resources the whole physical phase is
        # one engine delay of ``step_time``, so the per-operation charge can
        # skip the remote-count branch and the ``perform_step`` hop.  Bound
        # as an instance attribute shadowing the method; the event stream is
        # byte-identical (same single ``engine.schedule`` at the same point).
        self._step_time = params.step_time
        if self.msg_time == 0 and self._domain.cpus is None:
            self.perform_operation = self._perform_operation_infinite  # type: ignore[method-assign]
        if self.msg_time > 0:
            self._kind_remote = engine.register_kind(_remote_arrived)

    # ------------------------------------------------------------------
    def _perform_operation_infinite(
        self,
        executed_sites: Collection[int],
        home_site: int,
        done: Done,
    ) -> None:
        """The fused infinite-resource, zero-network charge (see __init__)."""
        self.engine.schedule(self._step_time, done)

    def perform_operation(
        self,
        executed_sites: Collection[int],
        home_site: int,
        done: Done,
    ) -> None:
        """One charge per granted operation, wherever its replicas ran."""
        remote = (
            len(executed_sites) - (home_site in executed_sites)
            if self.msg_time > 0
            else 0
        )
        if remote:
            # One message per remote replica (same accounting as the
            # per-site charger); they travel in parallel, so the shared
            # pool's single charge starts after one msg_time.
            self.messages_sent += remote
            self.engine.schedule(self.msg_time, (self._kind_remote, self._domain, done))
        else:
            self._domain.perform_step(done)

    # ------------------------------------------------------------------
    def utilisation_summary(self) -> Dict[str, object]:
        """Rough utilisation counters (served / waited) for reporting."""
        summary = self._domain.utilisation_summary()
        if self.msg_time > 0:
            summary["messages_sent"] = self.messages_sent
        return summary


class PerSiteResources(ResourceCharger):
    """One :class:`ResourceDomain` per site: hardware follows data placement.

    Every replica branch of a granted operation is charged to the domain of
    the site that executed it (the phases run in parallel; the operation
    completes when the slowest replica does), and work at a site other than
    the transaction's home pays ``msg_time`` of network delay first.  This
    is what lets replication show its read-scaling upside: each added site
    adds ``resource_units`` of capacity, reads load one replica each, and
    only writes fan out.

    Hardware may be heterogeneous: ``params.site_units`` (one
    ``resource_units`` value per site) gives each site its own pool size,
    so a beefy primary can coexist with thin replicas.
    """

    def __init__(
        self,
        engine: EventEngine,
        params: SimulationParameters,
        rng: RandomSource,
        site_count: int,
    ):
        self.engine = engine
        self.params = params
        self.msg_time = params.msg_time
        self.messages_sent = 0
        #: Operation charges that involved at least one remote replica.
        self.remote_operations = 0
        self._kind_remote = engine.register_kind(_remote_arrived)
        self._kind_join = engine.register_kind(self._branch_finished)

        def units_of(site_id: int) -> Optional[int]:
            if params.site_units is not None:
                return params.site_units[site_id]
            return params.resource_units

        self.domains: List[ResourceDomain] = []
        for site_id in range(site_count):
            num_cpus, num_disks = params.units_to_hardware(units_of(site_id))
            self.domains.append(
                ResourceDomain(
                    engine,
                    # Independent per-site streams: one site's disk choices
                    # must not perturb another's, and adding a site must not
                    # reshuffle the existing sites' draws.
                    rng.spawn(f"site{site_id}"),
                    num_cpus=num_cpus,
                    num_disks=num_disks,
                    cpu_time=params.cpu_time,
                    io_time=params.io_time,
                    step_time=params.step_time,
                    name=f"site{site_id}/",
                )
            )

    # ------------------------------------------------------------------
    def perform_operation(
        self,
        executed_sites: Collection[int],
        home_site: int,
        done: Done,
    ) -> None:
        """Charge every executing replica's domain; done when all finish."""
        if len(executed_sites) == 1:
            # One replica (every available-copies read): no order, no join.
            sites: Collection[int] = executed_sites
            join = done
        elif executed_sites:
            sites = sorted(executed_sites)
            # Countdown join: each branch's phase ends in this one member,
            # and the last of them runs ``done``.
            join = (self._kind_join, [len(sites)], done)
        else:
            raise ValueError("perform_operation needs at least one executing site")
        msg_time = self.msg_time
        remote = False
        for site_id in sites:
            domain = self.domains[site_id]
            if msg_time > 0 and site_id != home_site:
                remote = True
                self.messages_sent += 1
                self.engine.schedule(msg_time, (self._kind_remote, domain, join))
            else:
                domain.perform_step(join)
        if remote:
            self.remote_operations += 1

    def _branch_finished(self, member: tuple) -> None:
        """Join ``(kind, [remaining], done)``: one replica branch finished;
        the last one drains ``done``."""
        remaining = member[1]
        remaining[0] -= 1
        if not remaining[0]:
            self.engine.dispatch(member[2])

    # ------------------------------------------------------------------
    def utilisation_summary(self) -> Dict[str, object]:
        """Per-site utilisation counters plus system-wide aggregates."""
        summary: Dict[str, object] = {}
        totals: Dict[str, int] = {}
        for site_id, domain in enumerate(self.domains):
            per_site = domain.utilisation_summary()
            if "resources" in per_site:
                summary["resources"] = "infinite"
                continue
            for key, value in per_site.items():
                summary[f"site{site_id}_{key}"] = value
                totals[key] = totals.get(key, 0) + int(value)
        summary.update(totals)
        summary["messages_sent"] = self.messages_sent
        summary["remote_operations"] = self.remote_operations
        return summary


def make_resource_charger(
    engine: EventEngine,
    params: SimulationParameters,
    rng: RandomSource,
) -> ResourceCharger:
    """Build the resource charger ``params.resource_placement`` selects."""
    if params.resource_placement == "per_site":
        return PerSiteResources(engine, params, rng, params.site_count)
    return GlobalResourceModel(engine, params, rng)
