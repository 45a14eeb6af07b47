"""Unit tests for the multi-site execution layer (repro.distributed).

Covers the placement policies, the router's read-one/write-all-available
routing, the available-copies failure rules (site failure aborts its writers;
recovered replicated copies are unreadable until a committed write), the
cross-site deadlock guard, statistics aggregation across crashes, and that
batch registration builds what registering name by name builds.
"""

import pytest

from repro.adts.page import PageType
from repro.core.policy import ConflictPolicy
from repro.core.requests import AbortReason
from repro.core.transaction import TransactionStatus
from repro.distributed import (
    HashShardedPlacement,
    ReplicatedPlacement,
    SingleSitePlacement,
    SiteStatus,
    TransactionRouter,
    make_placement,
)
from repro.core.dependency_graph import EdgeKind
from repro.core.errors import ReproError, SimulationError, TransactionStateError
from repro.sim.params import SimulationParameters
from repro.sim.random_source import RandomSource
from repro.sim.simulator import Simulation
from repro.sim.workload import AbstractDataTypeWorkload


def make_router(sites=2, replication="copies", policy=ConflictPolicy.RECOVERABILITY,
                objects=("x", "y")):
    router = TransactionRouter(
        site_count=sites, replication=replication, policy=policy, retain_terminated=True
    )
    page = PageType()
    for name in objects:
        router.register_object(name, page, compatibility=page.compatibility())
    return router


class TestPlacement:
    def test_single_site_places_everything_on_site_zero(self):
        placement = SingleSitePlacement(4)
        assert placement.sites_for("anything") == (0,)
        assert not placement.is_replicated("anything")

    def test_hash_sharding_is_stable_and_in_range(self):
        placement = HashShardedPlacement(4)
        names = [f"obj{i:05d}" for i in range(200)]
        homes = {name: placement.sites_for(name) for name in names}
        assert all(len(sites) == 1 and 0 <= sites[0] < 4 for sites in homes.values())
        # Deterministic: a second policy instance agrees exactly.
        again = HashShardedPlacement(4)
        assert all(again.sites_for(name) == homes[name] for name in names)
        # All four shards are actually used.
        assert {sites[0] for sites in homes.values()} == {0, 1, 2, 3}

    def test_replicated_placement_covers_every_site(self):
        placement = ReplicatedPlacement(3)
        assert placement.sites_for("x") == (0, 1, 2)
        assert placement.is_replicated("x")

    def test_make_placement_rejects_unknown_kind(self):
        with pytest.raises(SimulationError):
            make_placement("nonsense", 2)


class TestRouting:
    def test_write_fans_out_to_every_replica(self):
        router = make_router(sites=3)
        t = router.begin()
        request = router.perform(t.gtid, "x", "write", 1)
        assert request.executed
        assert sorted(request.branch_handles) == [0, 1, 2]
        assert all(site.scheduler.object_state("x") == 1 for site in router.sites)

    def test_read_goes_to_exactly_one_replica(self):
        router = make_router(sites=3)
        t = router.begin()
        request = router.perform(t.gtid, "x", "read")
        assert request.executed
        assert len(request.branch_handles) == 1

    def test_global_commit_is_durable_everywhere(self):
        router = make_router(sites=2)
        t = router.begin()
        router.perform(t.gtid, "x", "write", 7)
        assert router.commit(t.gtid) is TransactionStatus.COMMITTED
        for site in router.sites:
            assert site.scheduler.committed_state("x") == 7

    def test_blocked_replica_blocks_the_global_request(self):
        router = make_router(sites=2)
        writer = router.begin()
        router.perform(writer.gtid, "x", "write", 1)
        reader = router.begin()
        request = router.perform(reader.gtid, "x", "read")
        assert request.blocked and not request.executed
        router.commit(writer.gtid)
        assert request.executed
        assert request.value == 1

    def test_protocol_abort_at_one_branch_aborts_globally(self):
        # Two transactions write x in opposite order on each other's heels;
        # under 2PL the second writer of each object waits, and the cycle
        # victim's abort must reach every site.
        router = make_router(sites=2, policy=ConflictPolicy.TWO_PHASE_LOCKING)
        t1, t2 = router.begin(), router.begin()
        router.perform(t1.gtid, "x", "write", 1)
        router.perform(t2.gtid, "y", "write", 2)
        assert router.perform(t1.gtid, "y", "write", 3).blocked
        request = router.perform(t2.gtid, "x", "write", 4)
        assert request.aborted
        assert t2.status is TransactionStatus.ABORTED
        # t1's blocked write of y is granted once t2's locks are gone.
        assert router.commit(t1.gtid) is TransactionStatus.COMMITTED

    def test_submit_while_blocked_is_rejected_before_any_fanout(self):
        # The centralized scheduler rejects an operation while the previous
        # one is queued; the router must refuse *before* touching any branch,
        # or replicas would diverge.
        router = make_router(sites=2)
        writer = router.begin()
        router.perform(writer.gtid, "x", "write", 1)
        blocked = router.begin()
        assert router.perform(blocked.gtid, "x", "read").blocked
        with pytest.raises(TransactionStateError):
            router.perform(blocked.gtid, "y", "write", 9)
        # Nothing was mutated: y is untouched at both replicas and the
        # blocked read is still the current request (granted on commit).
        for site in router.sites:
            assert site.scheduler.object_state("y") == 0
        router.commit(writer.gtid)
        assert blocked.current_request.executed

    def test_unknown_object_raises(self):
        router = make_router()
        t = router.begin()
        from repro.core.errors import UnknownObjectError

        with pytest.raises(UnknownObjectError):
            router.perform(t.gtid, "nope", "read")


class TestSiteFailure:
    def test_failure_aborts_transactions_that_wrote_to_the_site(self):
        router = make_router(sites=2)
        writer = router.begin()
        reader = router.begin()
        router.perform(writer.gtid, "x", "write", 1)
        router.perform(reader.gtid, "y", "read")
        router.fail_site(1)
        assert writer.status is TransactionStatus.ABORTED
        assert reader.status is TransactionStatus.ACTIVE
        assert router.router_stats.site_failure_aborts == 1
        # The reader finishes unharmed on the surviving site.
        assert router.commit(reader.gtid) is TransactionStatus.COMMITTED

    def test_failure_aborts_transactions_blocked_at_the_site(self):
        # Object "obj00001" hashes reads deterministically; force a blocked
        # read at site 1 by writing there first from another transaction.
        router = make_router(sites=2)
        writer = router.begin()
        router.perform(writer.gtid, "x", "write", 1)
        reader = router.begin()
        request = router.perform(reader.gtid, "x", "read")
        assert request.blocked
        blocked_site = next(iter(request.branch_handles))
        router.fail_site(blocked_site)
        assert reader.status is TransactionStatus.ABORTED

    def test_committed_transactions_survive_failure(self):
        router = make_router(sites=2)
        t = router.begin()
        router.perform(t.gtid, "x", "write", 3)
        assert router.commit(t.gtid) is TransactionStatus.COMMITTED
        router.fail_site(1)
        assert t.status is TransactionStatus.COMMITTED
        assert router.sites[0].scheduler.committed_state("x") == 3

    def test_operations_fail_when_no_copy_is_available(self):
        router = make_router(sites=1, replication="single")
        router.fail_site(0)
        t = router.begin()
        request = router.perform(t.gtid, "x", "write", 1)
        assert request.aborted
        assert request.abort_reason is AbortReason.SITE_UNAVAILABLE
        assert t.status is TransactionStatus.ABORTED

    def test_double_failure_is_rejected(self):
        router = make_router(sites=2)
        router.fail_site(1)
        with pytest.raises(ReproError):
            router.sites[1].fail()

    def test_stats_survive_the_crash(self):
        router = make_router(sites=2)
        t = router.begin()
        router.perform(t.gtid, "x", "write", 1)
        router.commit(t.gtid)
        executed_before = router.stats.operations_executed
        assert executed_before >= 2  # one write per replica
        router.fail_site(1)
        assert router.stats.operations_executed == executed_before


class TestRecovery:
    def test_recovered_replicated_copy_is_unreadable_until_committed_write(self):
        router = make_router(sites=2)
        seed = router.begin()
        router.perform(seed.gtid, "x", "write", 1)
        router.commit(seed.gtid)
        router.fail_site(1)
        router.recover_site(1)
        site = router.sites[1]
        assert site.status is SiteStatus.UP
        assert not site.readable("x")
        assert site.writable("x")
        # An uncommitted write does not make the copy readable yet.
        writer = router.begin()
        router.perform(writer.gtid, "x", "write", 9)
        assert not site.readable("x")
        # The committed write does.
        assert router.commit(writer.gtid) is TransactionStatus.COMMITTED
        assert site.readable("x")
        assert site.scheduler.committed_state("x") == 9

    def test_committed_state_is_durable_across_a_crash(self):
        # Committed data lives on "disk": a crash loses only volatile
        # scheduler state, so a recovered single-copy object serves the
        # committed value, not its initial state.
        router = TransactionRouter(site_count=2, replication="hash", retain_terminated=True)
        page = PageType()
        names = [f"obj{i}" for i in range(8)]
        for name in names:
            router.register_object(name, page, compatibility=page.compatibility())
        victim = next(name for name in names if router.placement.sites_for(name) == (1,))
        writer = router.begin()
        router.perform(writer.gtid, victim, "write", 42)
        router.commit(writer.gtid)
        router.fail_site(1)
        router.recover_site(1)
        reader = router.begin()
        request = router.perform(reader.gtid, victim, "read")
        assert request.executed
        assert request.value == 42

    def test_only_writes_that_landed_at_the_site_make_copies_readable(self):
        # x is written while site 1 is down (the write lands only on site 0);
        # committing it must NOT make site 1's stale x copy readable.
        router = make_router(sites=2)
        router.fail_site(1)
        writer = router.begin()
        router.perform(writer.gtid, "x", "write", 42)
        router.recover_site(1)
        router.perform(writer.gtid, "y", "write", 7)  # lands on both sites
        assert router.commit(writer.gtid) is TransactionStatus.COMMITTED
        site = router.sites[1]
        assert site.readable("y")
        assert not site.readable("x")
        # Reads of x keep falling over to site 0's fresh copy.
        reader = router.begin()
        request = router.perform(reader.gtid, "x", "read")
        assert list(request.branch_handles) == [0]
        assert request.value == 42

    def test_single_copy_objects_are_readable_immediately_after_recovery(self):
        router = TransactionRouter(site_count=2, replication="hash", retain_terminated=True)
        page = PageType()
        names = [f"obj{i}" for i in range(8)]
        for name in names:
            router.register_object(name, page, compatibility=page.compatibility())
        victim = next(
            name for name in names if router.placement.sites_for(name) == (1,)
        )
        router.fail_site(1)
        router.recover_site(1)
        assert router.sites[1].readable(victim)

    def test_reads_fall_over_to_a_readable_replica(self):
        router = make_router(sites=2)
        seed = router.begin()
        router.perform(seed.gtid, "x", "write", 5)
        router.commit(seed.gtid)
        router.fail_site(1)
        router.recover_site(1)
        reader = router.begin()
        request = router.perform(reader.gtid, "x", "read")
        assert request.executed
        # Only site 0 can serve the read: site 1's copy is still unreadable.
        assert list(request.branch_handles) == [0]
        assert request.value == 5


class TestCrossSiteDeadlock:
    def test_cross_site_wait_cycle_is_detected_and_broken(self, monkeypatch):
        # Shard x and y onto different sites, then interleave two writers so
        # each waits for the other at a different site: no single site can
        # see the cycle, the router's union check must.
        router = TransactionRouter(
            site_count=2,
            replication="hash",
            policy=ConflictPolicy.TWO_PHASE_LOCKING,
            retain_terminated=True,
        )
        page = PageType()
        names = [f"obj{i}" for i in range(16)]
        for name in names:
            router.register_object(name, page, compatibility=page.compatibility())
        on_zero = next(n for n in names if router.placement.sites_for(n) == (0,))
        on_one = next(n for n in names if router.placement.sites_for(n) == (1,))
        union = router._cycles.graph
        walked = []
        successors = union.successors
        monkeypatch.setattr(
            union, "successors", lambda gtid: walked.append(gtid) or successors(gtid)
        )
        t1, t2 = router.begin(), router.begin()
        assert router.perform(t1.gtid, on_zero, "write", 1).executed
        assert router.perform(t2.gtid, on_one, "write", 2).executed
        assert router.perform(t1.gtid, on_one, "write", 3).blocked
        # The wait edge T1 -> T2 was checked, but the union graph records no
        # back edge: it is acyclic, so it was never walked.
        assert router.router_stats.cross_site_cycle_checks == 1
        assert union.has_edge(t1.gtid, t2.gtid)
        assert walked == []
        request = router.perform(t2.gtid, on_zero, "write", 4)
        assert walked
        assert request.aborted
        assert t2.status is TransactionStatus.ABORTED
        assert router.router_stats.cross_site_deadlock_aborts == 1
        # The survivor drains and commits.
        assert router.commit(t1.gtid) is TransactionStatus.COMMITTED


class TestGlobalCommitProtocol:
    def test_pseudo_commit_drains_across_sites(self):
        # Two pushes on the same stack-like page: under recoverability the
        # second writer pseudo-commits behind the first at every replica and
        # durably commits only when the first terminates everywhere.
        router = make_router(sites=2)
        t1, t2 = router.begin(), router.begin()
        router.perform(t1.gtid, "x", "write", 1)
        router.perform(t2.gtid, "y", "write", 2)
        # t2 also writes x after t1: recoverable (write-write), so it
        # executes with a commit dependency on t1 at both sites.
        request = router.perform(t2.gtid, "x", "write", 3)
        assert request.executed
        assert router.commit(t2.gtid) is TransactionStatus.PSEUDO_COMMITTED
        assert t2.status is TransactionStatus.PSEUDO_COMMITTED
        assert router.commit(t1.gtid) is TransactionStatus.COMMITTED
        assert t2.status is TransactionStatus.COMMITTED
        assert router.router_stats.commits == 2

    def test_commit_while_blocked_is_rejected_before_any_branch_commits(self):
        # Committing with a queued request must fail atomically: no branch
        # may durably commit before the rejection.
        router = make_router(sites=2, policy=ConflictPolicy.TWO_PHASE_LOCKING)
        holder = router.begin()
        router.perform(holder.gtid, "x", "write", 1)
        waiter = router.begin()
        router.perform(waiter.gtid, "y", "write", 5)
        assert router.perform(waiter.gtid, "x", "write", 6).blocked
        with pytest.raises(TransactionStateError):
            router.commit(waiter.gtid)
        assert waiter.status is TransactionStatus.ACTIVE
        # y's write is still uncommitted everywhere: an abort undoes it.
        router.abort(waiter.gtid)
        for site in router.sites:
            assert site.scheduler.committed_state("y") == 0

    def test_commit_requires_active_transaction(self):
        router = make_router()
        t = router.begin()
        router.perform(t.gtid, "x", "write", 1)
        router.commit(t.gtid)
        with pytest.raises(TransactionStateError):
            router.commit(t.gtid)

    def test_user_abort_reaches_every_branch(self):
        router = make_router(sites=2)
        t = router.begin()
        router.perform(t.gtid, "x", "write", 1)
        router.abort(t.gtid)
        assert t.status is TransactionStatus.ABORTED
        # The write was rolled back at every replica (pages start at 0).
        for site in router.sites:
            assert site.scheduler.object_state("x") == 0


class TestStallReport:
    def test_report_names_each_sites_waits_and_the_union_verdict(self):
        router = TransactionRouter(
            site_count=3, replication="hash",
            policy=ConflictPolicy.RECOVERABILITY, retain_terminated=True,
        )
        page = PageType()
        names = [f"obj{i}" for i in range(32)]
        x, z = [n for n in names if router.placement.sites_for(n) == (0,)][:2]
        y, w = [n for n in names if router.placement.sites_for(n) == (1,)][:2]
        for name in (x, y, z, w):
            router.register_object(name, page, compatibility=page.compatibility())
        t1, t2, t3, t4, t5, t6 = (router.begin() for _ in range(6))
        assert router.perform(t1.gtid, x, "write", 1).executed
        assert router.perform(t2.gtid, x, "read").blocked  # t2 waits for t1
        assert router.perform(t3.gtid, y, "write", 1).executed
        assert router.perform(t4.gtid, y, "write", 2).executed  # t4 -> t3
        assert router.commit(t4.gtid) is TransactionStatus.PSEUDO_COMMITTED
        for transaction in (t5, t6):  # a branch at each of sites 0 and 1
            assert router.perform(transaction.gtid, z, "read").executed
            assert router.perform(transaction.gtid, w, "read").executed
        router.fail_site(2)
        # What a recovered site's replicated copies would show until written.
        router.sites[1].unreadable.update((y, w))
        assert router.stall_report().splitlines() == [
            "site 0: up, 4 nodes, 1 edges",
            f"  {x} blocks [{t2.gtid}]",
            "site 1: up, 4 nodes, 1 edges",
            f"  unreadable {sorted((y, w))}",
            f"  pseudo-committed {t4.gtid} waits for [{t3.gtid}]",
            "site 2: down",
            f"live, unblocked: {[t1.gtid, t3.gtid, t5.gtid, t6.gtid]}",
            "union graph: acyclic",
        ]
        # Grant-time edges close t5 -> t6 -> t5 across sites 0 and 1.
        for site_id, source, target in ((0, t5, t6), (1, t6, t5)):
            router.sites[site_id].scheduler.graph.add_edge(
                source.branches[site_id].local_tid, target.branches[site_id].local_tid,
                EdgeKind.COMMIT_DEPENDENCY,
            )
        assert router.stall_report().splitlines()[-1] in (
            f"union graph: cycle {[t5.gtid, t6.gtid]}",
            f"union graph: cycle {[t6.gtid, t5.gtid]}",
        )

    def test_a_stalled_multi_site_run_raises_the_report(self, monkeypatch):
        def stall(max_events):
            raise SimulationError(f"simulation exceeded the safety limit of {max_events} events")

        replicated = Simulation(SimulationParameters(
            seed=1, total_completions=5, site_count=2, replication="copies",
        ))
        monkeypatch.setattr(replicated.engine, "run_until_stop", stall)
        with pytest.raises(SimulationError) as raised:
            replicated.run()
        message = str(raised.value)
        assert message.startswith("simulation exceeded the safety limit of 2000000 events\n")
        assert message.endswith(replicated.router.stall_report())
        assert "site 1: up" in message and "union graph: acyclic" in message
        central = Simulation(SimulationParameters(seed=1, total_completions=5))
        monkeypatch.setattr(central.engine, "run_until_stop", stall)
        with pytest.raises(SimulationError, match=r"2000000 events$"):
            central.run()


class TestRecoveredTidReuse:
    def test_seed_411_one_phase_commit_run_completes(self):
        # A crash finalizes a pseudo-committed transaction whose branch at
        # another site predates that site's own crash and recovery.  The
        # recovered scheduler has reissued the branch's local tid to a live
        # transaction; unmapping it lost that transaction's grant, and the
        # run wedged after 64 completions with every wait chain ending there.
        from repro.analysis import BENCH_SCALE, EXPERIMENT_REGISTRY

        spec = EXPERIMENT_REGISTRY.spec("figure-4-commit", BENCH_SCALE)
        (variant,) = [v for v in spec.variants if v.label == "one-phase"]
        params = spec.base_params.replace(mpl_level=50, seed=411, **dict(variant.overrides))
        metrics = Simulation(params).run()
        assert metrics.completions == params.total_completions


def registration(router):
    """Everything registration decides, with specs and tables by identity."""
    return (
        {name: id(spec) for name, spec in router._specs.items()},
        [list(site._copies.items()) for site in router.sites],
        [
            [
                (name, manager.name, id(manager.spec), id(manager.compatibility),
                 manager.materialize_state, manager.committed_state,
                 manager.current_state, manager._initial_committed)
                for name, manager in site.scheduler.objects.items()
            ]
            for site in router.sites
        ],
    )


def registrations(kind):
    """``(spec, tables, options)`` of a batch, one kind per registration shape."""
    names = [f"obj{index:02d}" for index in range(12)]
    if kind == "adt-tables":
        # Per-object random tables, through the workload's own batch.
        params = SimulationParameters(database_size=len(names))
        workload = AbstractDataTypeWorkload(params, RandomSource(1))
        workload.register_objects(TransactionRouter())
        spec = workload._spec
        return spec, dict(workload.tables), dict(materialize_state=False)
    page = PageType()
    tables = dict.fromkeys(names, page.compatibility())
    if kind == "materialized-state":
        return page, tables, dict(initial_state=5, materialize_state=True)
    return page, tables, dict(materialize_state=False)


class TestBatchRegistration:
    """``register_objects`` builds exactly what ``register_object`` per name
    builds, in the same order, at every site."""

    @pytest.mark.parametrize("kind", ["shared-table", "adt-tables", "materialized-state"])
    @pytest.mark.parametrize("replication", ["copies", "hash"])
    def test_batch_equals_singles(self, replication, kind):
        spec, tables, options = registrations(kind)
        batch = TransactionRouter(site_count=3, replication=replication)
        batch.register_objects(spec, tables, **options)
        singles = TransactionRouter(site_count=3, replication=replication)
        for name, compatibility in tables.items():
            singles.register_object(name, spec, compatibility, **options)
        assert registration(batch) == registration(singles)
        assert sum(len(site._copies) for site in batch.sites) == (
            3 * len(tables) if replication == "copies" else len(tables)
        )
        for router in (batch, singles):
            # Read-only-ness belongs to the spec: its objects share one cache.
            assert len({id(cache) for cache in router._read_only_by_op.values()}) == 1
