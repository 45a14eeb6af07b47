"""What a crash must lose and what it must keep (in-place recovery).

``Site.fail()`` parks the scheduler and ``Site.recover()`` discards exactly
its volatile state: transactions, dependency graph, blocked queues,
uncommitted logs and their indexes, the lock table, statistics and the
tid/sequence counters go; the scheduler and manager objects themselves, the
committed states, compiled policy tables and listeners stay.
The stream-level equivalence with the old rebuild lives in
``test_crash_recovery_oracle.py``; these tests pin the object-level contract,
plus the small bookkeeping rules that rode along (liveness as data, quorum
sizes validated per copy count, one table compile per compatibility spec,
per-table lookups shared by every copy and never kept past their spec).
"""

import gc
import weakref

import pytest

from repro.adts.page import PageType
from repro.core.errors import SimulationError
from repro.core.object_manager import ObjectManager
from repro.core.policy import ConflictPolicy
from repro.core.scheduler import Scheduler
from repro.core.transaction import TransactionStatus
from repro.distributed import QuorumConsensus, TransactionRouter
from repro.distributed.router import _SiteRelay
from repro.distributed.site import SiteStatus
from repro.sim.params import SimulationParameters
from repro.sim.simulator import Simulation

POLICIES = [ConflictPolicy.RECOVERABILITY, ConflictPolicy.TWO_PHASE_LOCKING]


def make_router(policy=ConflictPolicy.RECOVERABILITY):
    router = TransactionRouter(
        site_count=3, replication="copies", policy=policy, retain_terminated=True,
        replication_protocol="quorum", quorum_read=2, quorum_write=2,
    )
    page = PageType()
    for name in ("x", "y"):
        router.register_object(name, page, compatibility=page.compatibility())
    return router


def dirty_site(router):
    """Commit x=7 at a write quorum, then leave uncommitted and blocked work.

    Returns a site that holds the committed 7, a second writer's uncommitted
    operation and a blocked reader — every kind of volatile state at once.
    """
    writer = router.begin()
    first = router.perform(writer.gtid, "x", "write", 7)
    assert router.commit(writer.gtid) is TransactionStatus.COMMITTED
    site_id = sorted(first.branch_handles)[0]
    pending = router.begin()
    assert site_id in router.perform(pending.gtid, "x", "write", 8).branch_handles
    reader = router.begin()
    assert router.perform(reader.gtid, "x", "read").blocked
    site = router.sites[site_id]
    manager = site.scheduler.object("x")
    assert manager.committed_state == 7 and manager.current_state == 8
    assert manager.uncommitted and manager.blocked
    return site


class TestWhatACrashDiscards:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_volatile_state_goes_objects_and_committed_state_stay(self, policy):
        router = make_router(policy)
        site = dirty_site(router)
        scheduler = site.scheduler
        managers = dict(scheduler.objects)
        backend = scheduler.backend
        assert scheduler.graph.mutations > 0 and scheduler._next_tid > 0
        if policy is ConflictPolicy.TWO_PHASE_LOCKING:
            assert backend.holders("x")

        router.fail_site(site.site_id)
        assert site.scheduler is None  # a stale dereference fails loudly
        with pytest.raises(AttributeError):
            site.scheduler.object("x")
        router.recover_site(site.site_id)

        assert site.scheduler is scheduler
        assert scheduler.objects == managers
        assert all(scheduler.objects[name] is managers[name] for name in managers)
        assert scheduler.backend is backend
        assert scheduler.graph.mutations == 0
        assert not scheduler.graph.edge_sources()
        assert scheduler.transactions == {} and scheduler._blocked_objects == {}
        assert scheduler._next_tid == 0 and scheduler._sequence == 0
        assert scheduler.stats.as_dict() == type(scheduler.stats)().as_dict()
        for manager in managers.values():
            assert manager.uncommitted == [] and manager.blocked == []
            assert manager._op_groups == {} and manager._events_by_tid == {}
            assert manager.current_state is manager.committed_state
        # The durable write survived; the uncommitted 8 did not.
        assert managers["x"].committed_state == 7
        if policy is ConflictPolicy.TWO_PHASE_LOCKING:
            # The lock table went with the crash: nobody holds anything, and
            # the object is free for the first transaction that asks.
            assert all(backend.holders(name) == {} for name in managers)
            newcomer = scheduler.begin()
            assert scheduler.perform(newcomer.tid, "x", "write", 9).executed
            assert list(backend.holders("x")) == [newcomer.tid]
            scheduler.abort(newcomer.tid)
            assert backend.holders("x") == {}

    def test_compiled_tables_survive_and_are_compiled_once_per_spec(self, monkeypatch):
        compiles = []
        original = ObjectManager._compile_policy

        def counting(self, policy):
            compiles.append(self.name)
            return original(self, policy)

        monkeypatch.setattr(ObjectManager, "_compile_policy", counting)
        router = make_router()
        site = dirty_site(router)  # classifies conflicts at every site
        assert len(compiles) == 1  # three copies of x over one shared specification
        tables = site.scheduler.object("x")._compiled_tables
        assert tables is not None
        router.fail_site(site.site_id)
        router.recover_site(site.site_id)
        assert site.scheduler.object("x")._compiled_tables is tables
        dirty_site(router)
        assert len(compiles) == 1

    def test_separate_specs_compile_separately(self):
        scheduler = Scheduler()
        page = PageType()
        scheduler.register_object("a", page, compatibility=page.compatibility())
        scheduler.register_object("b", page, compatibility=page.compatibility())
        a, b = scheduler.object("a"), scheduler.object("b")
        assert a.compatibility is not b.compatibility
        a._tables_for(ConflictPolicy.RECOVERABILITY)
        assert ConflictPolicy.RECOVERABILITY in a.compatibility.compiled_tables
        assert b.compatibility.compiled_tables == {}

    def test_site_statistics_stay_monotonic_across_the_crash(self):
        router = make_router()
        site = dirty_site(router)
        before = site.stats.as_dict()
        assert before["operations_executed"] > 0
        router.fail_site(site.site_id)
        assert site.stats.as_dict() == before
        router.recover_site(site.site_id)
        assert site.stats.as_dict() == before
        dirty_site(router)
        after = site.stats.as_dict()
        assert all(after[name] >= before[name] for name in before)

    def test_relay_is_subscribed_exactly_once(self):
        router = make_router()
        for _ in range(3):
            router.fail_site(1)
            router.recover_site(1)
        for site in router.sites:
            relays = [
                listener for listener in site.scheduler._listeners
                if isinstance(listener, _SiteRelay)
            ]
            assert len(relays) == 1 and relays[0].site is site
            assert len(site.scheduler._on_committed) == 1

    def test_a_new_router_starts_from_the_registered_initial_state(self):
        # A recovered site keeps its durable state; the spec its copies were
        # registered from does not, so the next build starts from zero.
        router = make_router()
        site = dirty_site(router)
        router.fail_site(site.site_id)
        router.recover_site(site.site_id)
        assert site.scheduler.committed_state("x") == 7
        assert site.generation == 1 and site.failures == 1
        fresh = make_router()
        assert all(s.scheduler.committed_state("x") == 0 for s in fresh.sites)
        assert all(
            s.generation == 0 and s.failures == 0 and not s.unreadable for s in fresh.sites
        )

    def test_sweep_gate_stays_monotonic_across_the_crash(self):
        router = make_router()
        seen = [router._cycles.union_mutations()]
        site = dirty_site(router)
        seen.append(router._cycles.union_mutations())
        router.fail_site(site.site_id)
        seen.append(router._cycles.union_mutations())
        router.recover_site(site.site_id)
        seen.append(router._cycles.union_mutations())
        dirty_site(router)
        seen.append(router._cycles.union_mutations())
        assert seen == sorted(seen) and seen[-1] > seen[1] > seen[0]

    def test_a_crashing_run_constructs_no_manager_or_scheduler(self, monkeypatch):
        params = SimulationParameters(
            mpl_level=8, total_completions=60, database_size=60, seed=3,
            site_count=3, replication="copies", replication_protocol="quorum",
            quorum_read=2, quorum_write=2, commit_protocol="two-phase",
            failure_schedule=(
                (0.6, "fail", 1), (1.0, "fail", 0), (1.5, "recover", 1), (2.1, "recover", 0),
            ),
        )
        simulation = Simulation(params, workload_kind="readwrite")
        constructed = []
        for cls in (ObjectManager, Scheduler):
            original = cls.__init__

            def counting(self, *args, _original=original, **kwargs):
                constructed.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        metrics = simulation.run()
        assert [site.recoveries for site in simulation.router.sites] == [1, 1, 0]
        assert metrics.counters()["replication_site_failure_aborts"] > 0
        assert constructed == []


class TestLivenessAndQuorumBookkeeping:
    def test_is_up_is_plain_member_data(self):
        assert SiteStatus.UP.is_up is True and SiteStatus.DOWN.is_up is False
        assert "is_up" in vars(SiteStatus.UP) and "is_up" not in vars(SiteStatus)
        assert SiteStatus("up") is SiteStatus.UP and SiteStatus.DOWN.value == "down"

    @pytest.mark.parametrize("sizes", [(1, 1), (0, 2), (2, 4), (3, 1)])
    def test_an_invalid_quorum_raises_on_every_call(self, sizes):
        protocol = QuorumConsensus(read_quorum=sizes[0], write_quorum=sizes[1])
        for _ in range(3):
            with pytest.raises(SimulationError):
                protocol._quorums("x", (0, 1, 2))
        assert protocol._validated == {}

    def test_valid_quorums_are_validated_once_per_copy_count(self):
        protocol = QuorumConsensus()
        assert protocol._quorums("x", (0, 1, 2)) == (2, 2)
        assert protocol._quorums("y", (2, 1, 0)) == (2, 2)
        assert protocol._quorums("z", (0, 1, 2, 3, 4)) == (3, 3)
        assert protocol._validated == {3: (2, 2), 5: (3, 3)}
        # Sizes valid for three copies are still rejected for five.
        fixed = QuorumConsensus(read_quorum=2, write_quorum=2)
        assert fixed._quorums("x", (0, 1, 2)) == (2, 2)
        with pytest.raises(SimulationError):
            fixed._quorums("x", (0, 1, 2, 3, 4))

    def test_quorum_read_serves_own_write_then_freshest_then_rotation_order(self):
        router = make_router()
        protocol = router.replication
        writer = router.begin()
        written = sorted(router.perform(writer.gtid, "x", "write", 5).branch_handles)
        router.commit(writer.gtid)
        (stale,) = set(range(3)) - set(written)
        assert protocol.version_of(stale, "x") == 0
        # Force a quorum containing the stale copy: the fresh member serves.
        router.fail_site(written[0])
        reader = router.begin()
        request = router.perform(reader.gtid, "x", "read")
        assert sorted(request.branch_handles) == sorted([stale, written[1]])
        assert request.value_site == written[1] and request.value == 5
        # Equal versions: the first quorum member in rotation order serves.
        tie = router.perform(reader.gtid, "y", "read")
        assert tie.value_site == next(iter(tie.branch_handles))
        # A transaction's own uncommitted write outranks committed versions.
        own = router.begin()
        landed = sorted(router.perform(own.gtid, "y", "write", 9).branch_handles)
        mine = router.perform(own.gtid, "y", "read")
        assert mine.value_site in landed and mine.value == 9


class TestSharedPerTableData:
    """Copies share what is per table; nothing keeps a dropped table alive."""

    def test_copies_share_their_tables_lookups(self):
        router = make_router()
        x0, x1 = (router.sites[sid].scheduler.object("x") for sid in (0, 1))
        y0 = router.sites[0].scheduler.object("y")
        assert x0 is not x1 and x0.compatibility is x1.compatibility
        assert x0._op_index is x1._op_index is x0.compatibility.op_index
        # Another spec over the same operations tuple shares the index too.
        assert y0.compatibility is not x0.compatibility
        assert y0._op_index is x0._op_index == {"read": 0, "write": 1}

    def test_a_dropped_spec_is_not_kept_alive(self):
        page = PageType()
        compatibility = page.compatibility()
        specs = weakref.ref(page), weakref.ref(compatibility)
        scheduler = Scheduler()
        for name in ("a", "b"):
            scheduler.register_object(name, page, compatibility=compatibility)
        t1, t2 = scheduler.begin(), scheduler.begin()
        assert scheduler.perform(t1.tid, "a", "write", 1).executed
        scheduler.perform(t2.tid, "a", "read")  # classified: compiles the tables
        assert compatibility.compiled_tables
        del page, compatibility, scheduler, t1, t2
        gc.collect()
        assert [ref() for ref in specs] == [None, None]

    def test_an_adt_simulation_leaves_no_type_spec_behind(self):
        params = SimulationParameters(seed=3, database_size=20, mpl_level=4,
                                      total_completions=30, warmup_completions=5)
        simulation = Simulation(params, workload_kind="adt")
        spec = weakref.ref(simulation.workload._spec)
        simulation.run()
        del simulation
        gc.collect()
        assert spec() is None
