"""Unit tests for the resource layer: domains, chargers, network costs.

Covers :class:`ResourceDomain` queueing and its disk draw, the
:class:`GlobalResourceModel` shared pool, :class:`PerSiteResources`
fan-out charging with ``msg_time``
network delays, commit fan-out delays, and the router's least-loaded
read-one replica selection.
"""

import zlib

import pytest
from stepping import check_between_events

from repro.adts.page import PageType
from repro.core.errors import ReproError
from repro.distributed import TransactionRouter
from repro.sim.engine import EventEngine
from repro.sim.params import SimulationParameters
from repro.sim.random_source import RandomSource
from repro.sim.resources import (
    GlobalResourceModel,
    PerSiteResources,
    ResourceDomain,
    make_resource_charger,
)
from repro.sim.simulator import Simulation, run_simulation


class CountingRandomSource(RandomSource):
    """A RandomSource that counts its ``index`` draws (the disk choice)."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.draws = 0

    def index(self, n):
        self.draws += 1
        return super().index(n)


def stamp(engine, times):
    """A continuation member that appends the simulated time it drains at."""
    return (engine.register_kind(lambda member: times.append(engine.now)),)


def noop(engine):
    """A continuation member that does nothing."""
    return stamp(engine, [])


def finite_domain(engine, rng, *, num_cpus=1, num_disks=2, **overrides):
    params = SimulationParameters(total_completions=1)
    return ResourceDomain(
        engine,
        rng,
        num_cpus=num_cpus,
        num_disks=num_disks,
        cpu_time=params.cpu_time,
        io_time=params.io_time,
        step_time=params.step_time,
        **overrides,
    )


class TestResourceDomain:
    def test_infinite_domain_takes_step_time(self):
        engine = EventEngine()
        domain = finite_domain(engine, RandomSource(1), num_cpus=0, num_disks=0)
        done = []
        domain.perform_step(stamp(engine, done))
        engine.run()
        assert done == [pytest.approx(0.05)]
        assert domain.infinite and domain.load == 0
        assert domain.utilisation_summary() == {"resources": "infinite"}

    def test_finite_domain_queues_on_the_cpu(self):
        engine = EventEngine()
        domain = finite_domain(engine, RandomSource(1), num_cpus=1)
        done = []
        domain.perform_step(stamp(engine, done))
        domain.perform_step(stamp(engine, done))
        assert domain.load == 2  # one in service, one queued
        engine.run()
        # The second step waits for the only CPU; both finish eventually.
        assert len(done) == 2 and done[1] >= 0.015 + 0.035
        summary = domain.utilisation_summary()
        assert summary["cpu_served"] == 2 and summary["cpu_waits"] == 1
        assert domain.load == 0

    def test_multi_disk_domain_still_draws(self):
        engine = EventEngine()
        rng = CountingRandomSource(1)
        domain = finite_domain(engine, rng, num_cpus=1, num_disks=2)
        domain.perform_step(noop(engine))
        engine.run()
        assert rng.draws == 1

    def test_two_cpu_releases_at_one_timestamp_grant_in_fifo_order(self):
        # A and B hold both CPUs; C and D queue.  Both CPU stages end at
        # cpu_time, so the two releases land at one timestamp: A's grants C,
        # B's grants D.  One disk serialises the I/O, so completion order is
        # grant order.
        engine = EventEngine()
        domain = finite_domain(engine, RandomSource(1), num_cpus=2, num_disks=1)
        done = []
        finished = engine.register_kind(lambda member: done.append((member[1], engine.now)))
        for label in "ABCD":
            domain.perform_step((finished, label))
        summary = domain.utilisation_summary()
        assert summary["cpu_served"] == 2 and summary["cpu_waits"] == 2
        assert domain.load == 4 and len(domain.cpus.queue) == 2
        engine.run()
        assert [label for label, _ in done] == ["A", "B", "C", "D"]
        assert [now for _, now in done] == [
            pytest.approx(0.015 + 0.035 * n) for n in (1, 2, 3, 4)]
        summary = domain.utilisation_summary()
        assert summary["cpu_served"] == 4 and summary["cpu_waits"] == 2
        assert summary["disk_served"] == 4 and summary["disk_waits"] == 3
        assert domain.cpus.free == 2 and domain.disks[0].free == 1
        assert domain.load == 0


class TestGlobalResourceModel:
    def test_keeps_the_unconditional_disk_draw(self):
        # One disk draw per charged operation: the pinned sites=1 runs
        # depend on the shared pool's rng stream.
        engine = EventEngine()
        rng = CountingRandomSource(1)
        params = SimulationParameters(total_completions=1, resource_units=1)
        model = GlobalResourceModel(engine, params, rng)
        model.perform_operation((0,), 0, noop(engine))
        engine.run()
        assert rng.draws == 1

    def test_charges_once_however_many_replicas_executed(self):
        engine = EventEngine()
        params = SimulationParameters(total_completions=1, resource_units=1)
        model = GlobalResourceModel(engine, params, RandomSource(1))
        done = []
        model.perform_operation([0, 1, 2], 0, stamp(engine, done))
        engine.run()
        assert done == [pytest.approx(0.015 + 0.035)]
        assert model.utilisation_summary()["cpu_served"] == 1

    def test_remote_work_pays_msg_time_when_modelled(self):
        engine = EventEngine()
        params = SimulationParameters(total_completions=1, msg_time=0.5)
        model = GlobalResourceModel(engine, params, RandomSource(1))
        done = []
        model.perform_operation([1], 0, stamp(engine, done))
        engine.run()
        assert done == [pytest.approx(0.5 + 0.05)]
        assert model.messages_sent == 1
        assert model.utilisation_summary()["messages_sent"] == 1

    def test_local_work_pays_nothing(self):
        engine = EventEngine()
        params = SimulationParameters(total_completions=1, msg_time=0.5)
        model = GlobalResourceModel(engine, params, RandomSource(1))
        done = []
        model.perform_operation([0], 0, stamp(engine, done))
        engine.run()
        assert done == [pytest.approx(0.05)]
        assert model.messages_sent == 0

    def test_counts_one_message_per_remote_replica(self):
        # Same accounting as the per-site charger: a write executing at
        # several remote replicas sends one message each, even though the
        # shared pool is charged only once.
        engine = EventEngine()
        params = SimulationParameters(total_completions=1, msg_time=0.5)
        model = GlobalResourceModel(engine, params, RandomSource(1))
        model.perform_operation([0, 1, 2], 0, noop(engine))
        engine.run()
        assert model.messages_sent == 2

    def test_attaching_leaves_sites_without_domains(self):
        engine = EventEngine()
        params = SimulationParameters(total_completions=1, resource_units=1,
                                      site_count=2, replication="copies")
        model = GlobalResourceModel(engine, params, RandomSource(1))
        router = TransactionRouter(site_count=2, replication="copies")
        page = PageType()
        router.register_object("x", page, compatibility=page.compatibility())
        router.attach_resources(model)
        # Shared hardware carries no per-site load signal: no domains, and
        # reads keep the pre-refactor hash-rotation choice.
        assert all(site.domain is None for site in router.sites)
        t = router.begin()
        request = router.perform(t.gtid, "x", "read")
        assert list(request.branch_handles) == [zlib.crc32(b"x") % 2]


class TestPerSiteResources:
    def make(self, sites=2, **overrides):
        engine = EventEngine()
        params = SimulationParameters(total_completions=1, site_count=sites,
                                      replication="copies" if sites > 1 else "single",
                                      resource_placement="per_site", **overrides)
        return engine, PerSiteResources(engine, params, RandomSource(1), sites)

    def test_each_site_owns_its_own_hardware(self):
        engine, charger = self.make(sites=2, resource_units=1)
        done = []
        # Two local operations at different sites do not queue on each other.
        charger.perform_operation([0], 0, stamp(engine, done))
        charger.perform_operation([1], 1, stamp(engine, done))
        engine.run()
        assert done == [pytest.approx(0.05), pytest.approx(0.05)]
        summary = charger.utilisation_summary()
        assert summary["site0_cpu_served"] == 1 and summary["site1_cpu_served"] == 1
        assert summary["cpu_served"] == 2  # aggregate over the sites

    def test_write_fanout_charges_every_executing_site(self):
        engine, charger = self.make(sites=2, resource_units=1)
        done = []
        charger.perform_operation([0, 1], 0, stamp(engine, done))
        engine.run()
        assert done == [pytest.approx(0.05)]  # phases run in parallel
        summary = charger.utilisation_summary()
        assert summary["site0_cpu_served"] == 1 and summary["site1_cpu_served"] == 1

    def test_remote_replica_pays_msg_time(self):
        engine, charger = self.make(sites=2, resource_units=1, msg_time=0.5)
        done = []
        # Home is site 0: the branch at site 1 starts msg_time later, and
        # the operation completes when the slowest replica does.
        charger.perform_operation([0, 1], 0, stamp(engine, done))
        engine.run()
        assert done == [pytest.approx(0.5 + 0.05)]
        assert charger.messages_sent == 1
        assert charger.remote_operations == 1
        summary = charger.utilisation_summary()
        assert summary["messages_sent"] == 1 and summary["remote_operations"] == 1

    def test_zero_msg_time_means_no_network_events(self):
        engine, charger = self.make(sites=2, resource_units=1)
        charger.perform_operation([0, 1], 0, noop(engine))
        engine.run()
        assert charger.messages_sent == 0 and charger.remote_operations == 0

    def test_commit_network_delay_counts_remote_branches(self):
        engine, charger = self.make(sites=3, resource_units=1, msg_time=0.25)
        assert charger.commit_network_delay([0], 0) == 0.0
        assert charger.commit_network_delay([0, 1, 2], 0) == 0.25
        assert charger.messages_sent == 2  # the two remote branches
        _, charger_off = self.make(sites=3, resource_units=1)
        assert charger_off.commit_network_delay([0, 1, 2], 0) == 0.0

    def test_domain_loads_track_outstanding_work(self):
        engine, charger = self.make(sites=2, resource_units=1)
        charger.perform_operation([0], 0, noop(engine))
        assert charger.domains[0].load == 1 and charger.domains[1].load == 0
        engine.run()
        assert charger.domains[0].load == 0

    def test_infinite_per_site_domains(self):
        engine, charger = self.make(sites=2)
        done = []
        charger.perform_operation([0, 1], 0, stamp(engine, done))
        engine.run()
        assert done == [pytest.approx(0.05)]
        summary = charger.utilisation_summary()
        assert summary["resources"] == "infinite"
        assert summary["messages_sent"] == 0


class TestMakeResourceCharger:
    def test_global_placement_builds_the_shared_model(self):
        engine = EventEngine()
        params = SimulationParameters(total_completions=1, resource_units=2)
        charger = make_resource_charger(engine, params, RandomSource(1))
        assert isinstance(charger, GlobalResourceModel)

    def test_per_site_placement_builds_one_domain_per_site(self):
        engine = EventEngine()
        params = SimulationParameters(
            total_completions=1, resource_units=2, site_count=3,
            replication="copies", resource_placement="per_site",
        )
        charger = make_resource_charger(engine, params, RandomSource(1))
        assert isinstance(charger, PerSiteResources)
        assert len(charger.domains) == 3
        assert all(domain.cpus.capacity == 2 for domain in charger.domains)
        assert all(len(domain.disks) == 4 for domain in charger.domains)


class TestRouterResourceIntegration:
    def make_router(self, sites=2, **param_overrides):
        engine = EventEngine()
        params = SimulationParameters(
            total_completions=1, site_count=sites,
            replication="copies" if sites > 1 else "single",
            resource_placement="per_site", **param_overrides,
        )
        router = TransactionRouter(site_count=sites,
                                   replication=params.replication)
        page = PageType()
        router.register_object("x", page, compatibility=page.compatibility())
        charger = PerSiteResources(engine, params, RandomSource(1), sites)
        router.attach_resources(charger)
        return engine, router, charger

    def test_attach_wires_domains_onto_sites(self):
        engine, router, charger = self.make_router(sites=2, resource_units=1)
        assert [site.domain for site in router.sites] == charger.domains
        assert router.sites[0].load == 0

    def test_attach_rejects_domain_count_mismatch(self):
        engine, router, charger = self.make_router(sites=2, resource_units=1)
        with pytest.raises(ReproError):
            router.attach_resources(
                PerSiteResources(engine,
                                 SimulationParameters(total_completions=1,
                                                      site_count=3,
                                                      replication="copies",
                                                      resource_placement="per_site"),
                                 RandomSource(1), 3)
            )

    def test_perform_step_without_charger_is_rejected(self):
        router = TransactionRouter(site_count=1, replication="single")
        page = PageType()
        router.register_object("x", page, compatibility=page.compatibility())
        t = router.begin()
        router.perform(t.gtid, "x", "read")
        with pytest.raises(ReproError):
            router.perform_step(t.gtid, (0,))

    def test_reads_prefer_the_least_loaded_replica(self):
        engine, router, charger = self.make_router(sites=2, resource_units=1)
        # Saturate the replica the hash rotation would pick first.
        hash_target = zlib.crc32(b"x") % 2
        other = 1 - hash_target
        charger.domains[hash_target].perform_step(noop(engine))
        charger.domains[hash_target].perform_step(noop(engine))
        t = router.begin(home_site=0)
        request = router.perform(t.gtid, "x", "read")
        assert request.executed
        assert list(request.branch_handles) == [other]

    def test_reads_fall_back_to_hash_order_on_ties(self):
        engine, router, charger = self.make_router(sites=2, resource_units=1)
        t = router.begin(home_site=0)
        request = router.perform(t.gtid, "x", "read")
        assert list(request.branch_handles) == [zlib.crc32(b"x") % 2]

    def test_begin_spreads_home_sites_round_robin(self):
        engine, router, charger = self.make_router(sites=2, resource_units=1)
        homes = [router.begin().home_site for _ in range(4)]
        assert homes == [0, 1, 0, 1]
        with pytest.raises(ReproError):
            router.begin(home_site=7)

    def test_resource_phase_routes_through_the_router(self):
        engine, router, charger = self.make_router(sites=2, resource_units=1,
                                                   msg_time=0.5)
        t = router.begin(home_site=0)
        request = router.perform(t.gtid, "x", "write", 9)
        assert request.executed
        done = []
        router.perform_step(t.gtid, stamp(engine, done))
        engine.run()
        # Write-all: the remote replica's phase starts msg_time later.
        assert done == [pytest.approx(0.5 + 0.015 + 0.035)]
        assert router.commit_network_delay(t.gtid) == 0.5


def counters_crc32(metrics):
    """crc32 over every simulated statistic of one run (a stream pin)."""
    payload = repr((
        sorted(metrics.counters().items()),
        round(metrics.simulated_time, 10),
        round(metrics.response_time_total, 10),
    ))
    return zlib.crc32(payload.encode("utf-8"))


#: ``ac4-persite`` of ``benchmarks/perf`` at a tenth of the size.
AC4_PER_SITE = dict(
    mpl_level=50, total_completions=300, seed=1, write_probability=0.1,
    site_count=4, replication="copies", resource_units=1,
    resource_placement="per_site", msg_time=0.001,
)


def test_per_site_read_heavy_stream_is_pinned():
    # Recorded before ``ResourceDomain.load`` became a maintained count and
    # the sweep became edge-driven: replica choice and victims are unchanged.
    metrics = run_simulation(SimulationParameters(**AC4_PER_SITE), "readwrite")
    assert metrics.counters()["replication_cycle_sweeps"] == 215
    assert counters_crc32(metrics) == 3100844291


class TestMaintainedLoad:
    """``ResourceDomain.load`` is a count kept by the charge pipeline; it must
    equal the work sitting at the domain's servers wherever it can be read:
    between any two engine events, and inside one whenever a read is routed
    (``done`` of a finished operation may submit the next one)."""

    CRASHES = ((0.5, "fail", 1), (1.0, "recover", 1), (1.3, "fail", 0), (1.6, "recover", 0))

    @staticmethod
    def domains_of(simulation):
        charger = simulation.resources
        return charger.domains if isinstance(charger, PerSiteResources) else [charger._domain]

    def watch(self, simulation):
        """Check the invariant at every event and at every read's replica choice."""
        seen = {"checks": 0, "peak": 0}

        def check():
            for domain in self.domains_of(simulation):
                at_servers = 0 if domain.cpus is None else (
                    domain.cpus.load + sum(disk.load for disk in domain.disks))
                assert domain.load == at_servers >= 0
                seen["peak"] = max(seen["peak"], domain.load)
            seen["checks"] += 1

        check_between_events(simulation, check)
        # A centralized run drives its scheduler directly: no replica choice.
        replication = getattr(simulation.router, "replication", None)
        if replication is not None:
            select_read = replication.select_read
            replication.select_read = (
                lambda *choice: check() or select_read(*choice))
        return seen

    @pytest.mark.parametrize("overrides", [
        dict(AC4_PER_SITE, total_completions=150),
        dict(AC4_PER_SITE, total_completions=150, resource_units=2),  # rng disk choice
        dict(AC4_PER_SITE, total_completions=150, failure_schedule=CRASHES),
        dict(mpl_level=20, total_completions=150, database_size=200, seed=3,
             resource_units=1),  # the shared global pool
    ], ids=["per-site", "multi-disk", "crashes", "global"])
    def test_load_equals_the_work_at_the_servers(self, overrides):
        simulation = Simulation(SimulationParameters(**overrides), "readwrite")
        seen = self.watch(simulation)
        metrics = simulation.run()
        assert seen["checks"] >= metrics.events_processed
        assert seen["peak"] > 1
        # Watching changed nothing.
        assert metrics.counters() == run_simulation(
            SimulationParameters(**overrides), "readwrite").counters()

    def test_a_crash_leaves_the_in_flight_charges_counted(self):
        params = SimulationParameters(
            **dict(AC4_PER_SITE, total_completions=150, failure_schedule=self.CRASHES))
        simulation = Simulation(params, "readwrite")
        self.watch(simulation)
        in_flight = []
        fail_site = simulation.router.fail_site

        def failing(site_id):
            in_flight.append(simulation.resources.domains[site_id].load)
            fail_site(site_id)

        simulation.router.fail_site = failing
        simulation.run()
        assert len(in_flight) == 2 and min(in_flight) > 0

    def test_a_new_build_starts_from_a_fresh_zero_count(self):
        params = SimulationParameters(**dict(AC4_PER_SITE, total_completions=150))
        first = Simulation(params, "readwrite")
        counters = first.run().counters()
        stale = self.domains_of(first)
        assert any(domain.load > 0 for domain in stale)  # stopped mid-flight
        second = Simulation(params, "readwrite")
        fresh = self.domains_of(second)
        assert all(domain.load == 0 for domain in fresh)
        assert not set(map(id, fresh)) & set(map(id, stale))
        self.watch(second)
        assert second.run().counters() == counters

    @pytest.mark.parametrize("overrides", [
        dict(AC4_PER_SITE, total_completions=50),
        dict(mpl_level=20, total_completions=50, resource_units=1, msg_time=0.001,
             site_count=2, replication="copies"),  # the shared global pool
    ], ids=["per-site", "global"])
    def test_every_build_registers_the_same_event_kinds(self, overrides):
        # The charger's stage handlers are module-level: each build's engine
        # gets the same kind table, and a previous run leaves it unchanged.
        params = SimulationParameters(**overrides)
        first = Simulation(params, "readwrite")
        kinds = len(first.engine.handlers)
        counters = first.run().counters()
        for _ in range(2):
            simulation = Simulation(params, "readwrite")
            assert len(simulation.engine.handlers) == kinds
            assert simulation.run().counters() == counters

    def test_infinite_domains_never_count(self):
        params = SimulationParameters(
            **dict(AC4_PER_SITE, total_completions=150, resource_units=None))
        simulation = Simulation(params, "readwrite")
        seen = self.watch(simulation)
        simulation.run()
        assert seen["checks"] > 0 and seen["peak"] == 0
        assert all(domain.infinite for domain in simulation.resources.domains)
