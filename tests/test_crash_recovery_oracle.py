"""In-place crash recovery must be indistinguishable from rebuilding the site.

``Site.recover()`` brings the *same* scheduler and object managers back with
their volatile state discarded.  The reference below is the lifecycle it
replaced — a crash deep-copies the committed states and throws the scheduler
away; recovery (and ``reset()``) constructs a new scheduler and re-registers
every object from remembered registrations, then re-subscribes the
listeners — kept here as an independent oracle: it overrides the whole
lifecycle and shares no code with ``Site.fail``/``recover``/``reset``,
``Scheduler.discard_volatile`` or ``ObjectManager.discard_volatile``.

Seeded multi-site runs through a scripted double crash must agree on every
deterministic observable and on every copy's committed state, for each
replication protocol x commit protocol, the read/write and ADT workloads and
both backends; so must a ``Simulation.reset()`` reuse after a crashed run.
The read/write runs go with and without real page values: only with them do
the durable states and the catch-up's copies hold anything, and then up
copies at one stamped version must also hold one value.
"""

import copy

import pytest
from page_values import keep_page_values

from repro.core.policy import ConflictPolicy
from repro.core.scheduler import Scheduler, SchedulerStatistics
from repro.distributed import router as router_module
from repro.distributed.site import Site, SiteStatus
from repro.sim.params import SimulationParameters
from repro.sim.simulator import Simulation

SEEDS = (1, 2, 3, 5, 7, 11, 13, 17)

PROTOCOLS = {
    "available-copies": dict(replication_protocol="available-copies"),
    "quorum-r2w2": dict(replication_protocol="quorum", quorum_read=2, quorum_write=2),
    "primary-copy": dict(replication_protocol="primary-copy"),
}

#: workload kind, conflict policy (which selects the backend), and whether
#: read/write pages carry real values — only then do a crash's durable
#: states and the catch-up's deep copy hold anything to compare.
VARIANTS = {
    "readwrite-semantic": ("readwrite", ConflictPolicy.RECOVERABILITY, False),
    "readwrite-values-semantic": ("readwrite", ConflictPolicy.RECOVERABILITY, True),
    "adt-semantic": ("adt", ConflictPolicy.RECOVERABILITY, False),
    "readwrite-2pl": ("readwrite", ConflictPolicy.TWO_PHASE_LOCKING, False),
    "readwrite-values-2pl": ("readwrite", ConflictPolicy.TWO_PHASE_LOCKING, True),
}

#: Two overlapping outages, then a repeat crash of an already-recovered site;
#: every site is up again at the end.  Site 2 never fails: under
#: available-copies an object whose every copy has crashed since its last
#: write stays unreadable, and its readers restart forever.
DOUBLE_CRASH = (
    (0.6, "fail", 1),
    (1.0, "fail", 0),
    (1.5, "recover", 1),
    (2.1, "recover", 0),
    (2.8, "fail", 1),
    (3.3, "recover", 1),
)


# ----------------------------------------------------------------------
# The reference: throw the scheduler away, rebuild it from registrations
# ----------------------------------------------------------------------
class RebuildingSite(Site):
    def __init__(self, site_id, policy=ConflictPolicy.RECOVERABILITY, fair=True,
                 backend_factory=None):
        self._scheduler_arguments = dict(policy=policy, fair=fair, retain_terminated=False)
        self._backend_factory = backend_factory
        self._remembered = {}
        self._durable = {}
        super().__init__(site_id, policy=policy, fair=fair, backend_factory=backend_factory)

    def register_objects(self, spec, tables, *, initial_state=None, materialize_state=True,
                         replicated=False):
        # Every registration, single or batched, reaches a site through here.
        for name, compatibility in tables.items():
            self._remembered[name] = (spec, compatibility, initial_state, materialize_state)
        super().register_objects(
            spec, tables, initial_state=initial_state,
            materialize_state=materialize_state, replicated=replicated,
        )

    def _rebuild(self, states, listeners):
        backend = None if self._backend_factory is None else self._backend_factory()
        scheduler = Scheduler(backend=backend, **self._scheduler_arguments)
        for name, (spec, compatibility, initial, materialize) in self._remembered.items():
            scheduler.register_object(
                name, spec, compatibility=compatibility,
                initial_state=states.get(name, initial), materialize_state=materialize,
            )
        for listener in listeners:
            scheduler.add_listener(listener)
        self.scheduler = scheduler

    def fail(self):
        assert self.status is SiteStatus.UP
        for name, value in self.scheduler.stats.as_dict().items():
            setattr(self._retired_stats, name, getattr(self._retired_stats, name) + value)
        self._durable = {
            name: copy.deepcopy(self.scheduler.object(name).committed_state)
            for name, (_, _, _, materialize) in self._remembered.items()
            if materialize
        }
        self._listeners = list(self.scheduler._listeners)
        self.scheduler = None
        self.status = SiteStatus.DOWN
        self.generation += 1
        self.failures += 1
        self.unreadable.clear()

    def recover(self):
        assert self.status is SiteStatus.DOWN
        self._rebuild(self._durable, self._listeners)
        for name, replicated in self._copies.items():
            if replicated:
                self.unreadable.add(name)
        self.status = SiteStatus.UP
        self.recoveries += 1

    def reset(self):
        if self.scheduler is not None:
            self._listeners = list(self.scheduler._listeners)
        self._rebuild({}, self._listeners)
        self.status = SiteStatus.UP
        self.generation = 0
        self.unreadable.clear()
        self.failures = 0
        self.recoveries = 0
        self.domain = None
        self._durable = {}
        self._retired_stats = SchedulerStatistics()


def reference_simulation(monkeypatch, params, workload_kind):
    """A simulation whose router was built over :class:`RebuildingSite`."""
    with monkeypatch.context() as patch:
        patch.setattr(router_module, "Site", RebuildingSite)
        simulation = Simulation(params, workload_kind=workload_kind)
    assert all(type(site) is RebuildingSite for site in simulation.router.sites)
    return simulation


# ----------------------------------------------------------------------
# Observables
# ----------------------------------------------------------------------
def observables(simulation, metrics):
    """Everything deterministic about a finished run, copies included."""
    sites = []
    for site in simulation.router.sites:
        # A site still down at the end of the run has no scheduler to read.
        managers = sorted(site.scheduler.objects.items()) if site.status.is_up else []
        sites.append(
            dict(
                up=site.status.is_up,
                generation=site.generation,
                failures=site.failures,
                recoveries=site.recoveries,
                unreadable=sorted(site.unreadable),
                committed={name: manager.committed_state for name, manager in managers},
                visible={name: manager.current_state for name, manager in managers},
            )
        )
    return dict(
        counters=metrics.counters(),
        simulated_time=metrics.simulated_time,
        response_time_total=metrics.response_time_total,
        sites=sites,
    )


def committed_writes(observed):
    """How many page copies, over all up sites, hold a committed value other
    than the initial 0."""
    return sum(
        state != 0 for site in observed["sites"] for state in site["committed"].values()
    )


def assert_copies_agree_by_version(simulation):
    """Up copies of one object at one stamped version hold one committed
    value.  The reference shares the catch-up path (``committed_snapshot``,
    ``install_committed``), so only this checks what a catch-up installs.
    Available-copies keeps no versions."""
    if simulation.params.replication_protocol == "available-copies":
        return
    router = simulation.router
    protocol = router.replication
    values = {}
    for site in router.sites:
        if site.status.is_up:
            for name, manager in site.scheduler.objects.items():
                key = (name, protocol.version_of(site.site_id, name))
                values.setdefault(key, set()).add(manager.committed_state)
    disagreeing = {key: found for key, found in values.items() if len(found) > 1}
    assert not disagreeing, disagreeing


def crash_params(seed, protocol, commit_protocol, policy, **overrides):
    settings = dict(
        mpl_level=8, total_completions=50, database_size=60, seed=seed,
        policy=policy, site_count=3, replication="copies", msg_time=0.002,
        commit_protocol=commit_protocol, failure_schedule=DOUBLE_CRASH,
    )
    settings.update(PROTOCOLS[protocol])
    settings.update(overrides)
    return SimulationParameters(**settings)


# ----------------------------------------------------------------------
# Seeded runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("commit_protocol", ["one-phase", "two-phase"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_in_place_recovery_matches_rebuild(protocol, commit_protocol, variant, monkeypatch):
    workload_kind, policy, page_values = VARIANTS[variant]
    if page_values:
        keep_page_values(monkeypatch)
    crashed_work = 0
    for seed in SEEDS:
        params = crash_params(seed, protocol, commit_protocol, policy)
        reference = reference_simulation(monkeypatch, params, workload_kind)
        expected = observables(reference, reference.run())
        simulation = Simulation(params, workload_kind=workload_kind)
        assert all(type(site) is Site for site in simulation.router.sites)
        actual = observables(simulation, simulation.run())
        assert actual == expected, f"seed {seed}"
        assert [site["failures"] for site in actual["sites"]] == [1, 2, 0]
        if page_values:
            assert committed_writes(actual) > 0, f"seed {seed}"
            assert_copies_agree_by_version(simulation)
        crashed_work += actual["counters"]["replication_site_failure_aborts"]
    # The schedule must actually destroy in-flight work, or the comparison
    # above proves nothing about recovery.
    assert crashed_work > 0


@pytest.mark.parametrize("page_values", [False, True], ids=["no-values", "values"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_reset_reuse_after_a_crashed_run_matches_rebuild(protocol, page_values, monkeypatch):
    # The run ends with site 1 still down: reset() must bring it back, from
    # the registered initial states rather than the crashed run's durable ones.
    if page_values:
        keep_page_values(monkeypatch)
    params = crash_params(
        4, protocol, "two-phase", ConflictPolicy.RECOVERABILITY,
        failure_schedule=DOUBLE_CRASH[:-1],
    )
    reference = reference_simulation(monkeypatch, params, "readwrite")
    expected = observables(reference, reference.run())

    simulation = Simulation(params, workload_kind="readwrite")
    assert observables(simulation, simulation.run()) == expected
    if page_values:
        assert committed_writes(expected) > 0
        assert_copies_agree_by_version(simulation)
    assert not simulation.router.sites[1].status.is_up
    for _ in range(2):
        simulation.reset(params)
        assert all(site.status.is_up for site in simulation.router.sites)
        assert observables(simulation, simulation.run()) == expected

    # ...and the reference's own reset() agrees, so the oracle is sound.
    reference.reset(params)
    assert observables(reference, reference.run()) == expected
