"""The coordinator seam between the simulator and the system it drives.

:func:`create_coordinator` reads what the parameters say about the system.
One site that never fails (:func:`is_centralized`) is the paper's own
configuration — every figure of its performance study — and gets a
:class:`CentralCoordinator`: the site's scheduler driven directly, with
nothing to coordinate in between.  Anything else (several sites, or one site
with a failure schedule) gets the multi-site ``TransactionRouter``.

Layering rule (enforced by ``repro lint`` as REP004): :mod:`repro.sim` never
imports :mod:`repro.distributed`, so the router dependency is inverted — the
:mod:`repro` package registers a router constructor here when it loads, and
that constructor imports :mod:`repro.distributed` on the first multi-site
build, so a centralized run never loads the multi-site stack.  The registry
holds a single factory: the router *implementation* is not pluggable, only
its location in the import graph is.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from ..core.backends import ConcurrencyControlBackend
from ..core.errors import SimulationError
from ..core.scheduler import Scheduler, SchedulerStatistics
from .engine import EventEngine
from .params import SimulationParameters
from .resources import ResourceCharger

__all__ = [
    "RouterFactory",
    "CentralCoordinator",
    "register_router_factory",
    "is_centralized",
    "create_coordinator",
]

#: Anything that builds a router from the keyword arguments the seam passes
#: (site_count, replication, policy, protocol selections, ...).
RouterFactory = Callable[..., Any]

#: Set by the :mod:`repro` package, which always loads before this module.
_router_factory: RouterFactory

#: The one site of a centralized system, as the chargers' ``executed_sites``.
_HOME_ONLY = (0,)


def register_router_factory(factory: RouterFactory) -> None:
    """Install the router constructor (called by the :mod:`repro` package)."""
    global _router_factory
    _router_factory = factory


class CentralCoordinator:
    """One scheduler, driven directly: the centralized system of the paper.

    ``begin``, ``submit``, ``commit``, ``add_listener``, ``register_objects``
    (the batch registration a workload makes), ``register_object`` (its
    batch of one) and ``reset`` *are* the scheduler's bound methods: an
    operation costs what the scheduler charges, and the simulator reads the
    scheduler's own handles and listener callbacks.  What remains here is
    the physical phase (every operation runs at site 0, every transaction's
    home) and the multi-site summaries, which are empty.
    """

    __slots__ = ("scheduler", "begin", "submit", "commit", "add_listener",
                 "register_objects", "register_object", "reset", "_charger")

    def __init__(self, scheduler: Scheduler):
        self.scheduler = scheduler
        self.begin = scheduler.begin
        self.submit = scheduler.submit
        self.commit = scheduler.commit
        self.add_listener = scheduler.add_listener
        self.register_objects = scheduler.register_objects
        self.register_object = scheduler.register_object
        self.reset = scheduler.reset
        self._charger: ResourceCharger = None  # type: ignore[assignment]

    @property
    def stats(self) -> SchedulerStatistics:
        return self.scheduler.stats

    def attach_resources(self, charger: ResourceCharger) -> None:
        """Wire up the hardware granted operations are charged to."""
        self._charger = charger

    def perform_step(
        self, transaction_id: int, done: Union[Callable[[], None], tuple]
    ) -> None:
        """Charge the transaction's granted operation; ``done`` fires (or,
        as a typed engine member, drains) when the physical phase completes."""
        self._charger.perform_operation(_HOME_ONLY, 0, done)

    def commit_network_delay(self, transaction_id: int) -> float:
        """Network delay of the commit: the only branch is home-site local."""
        return self._charger.commit_network_delay(_HOME_ONLY, 0)

    def replication_summary(self) -> Dict[str, int]:
        """Empty, like :meth:`commit_summary`: nothing multi-site happened."""
        return {}

    commit_summary = replication_summary


def is_centralized(params: SimulationParameters) -> bool:
    """True when the parameters describe one site that never fails."""
    return params.site_count == 1 and not params.failure_schedule


def create_coordinator(
    params: SimulationParameters,
    engine: EventEngine,
    backend: Optional[ConcurrencyControlBackend] = None,
) -> Any:
    """Build the coordinator ``params`` calls for (see the module docstring).

    ``params.policy`` selects the concurrency-control backend per site;
    a ``backend`` instance overrides that choice outright, but only for the
    centralized configuration — several sites each need one of their own.
    Any other configuration gets a router from the registered factory, whose
    first call imports :mod:`repro.distributed`.
    """
    if is_centralized(params):
        return CentralCoordinator(
            Scheduler(
                policy=params.policy,
                fair=params.fair_scheduling,
                retain_terminated=False,
                backend=backend,
            )
        )
    if backend is not None:
        raise SimulationError(
            "an explicit backend instance requires site_count=1 and no "
            "failure schedule; select per-site backends through params.policy"
        )
    router = _router_factory(
        site_count=params.site_count,
        replication=params.replication,
        policy=params.policy,
        fair=params.fair_scheduling,
        retain_terminated=False,
        replication_protocol=params.replication_protocol,
        quorum_read=params.quorum_read,
        quorum_write=params.quorum_write,
        commit_protocol=params.commit_protocol,
        prepare_timeout=params.prepare_timeout,
    )
    # The commit protocol may need to schedule future work (the two-phase
    # prepare timeout); hand it the engine's clock, plus the kind registry
    # so its recurring timeout drains as a typed member.
    router.commit_protocol.attach_clock(
        engine.schedule, register_kind=engine.register_kind
    )
    return router
