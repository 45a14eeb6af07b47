"""Unit tests for the pluggable replication protocols (repro.distributed.replication).

Covers the protocol factory, quorum consensus (R/W validation, versioned
reads, write quorums, catch-up recovery), primary-copy (write funnelling,
deterministic failover election, catch-up), the catch-up safety rules
(committed state only), the periodic union-graph cycle sweep, and the
simulation-layer wiring (parameters, counters, heterogeneous hardware).
"""

import pytest

from repro.adts.base import AtomicType
from repro.adts.page import PageType
from repro.core.compatibility import Answer, CompatibilitySpec, RelationTable
from repro.core.errors import ReproError, SimulationError
from repro.core.policy import ConflictPolicy
from repro.core.requests import AbortReason
from repro.core.transaction import TransactionStatus
from repro.distributed import (
    AvailableCopies,
    PrimaryCopy,
    QuorumConsensus,
    TransactionRouter,
    make_replication_protocol,
)
from repro.distributed.site import Site
from repro.sim.params import SimulationParameters
from repro.sim.simulator import run_simulation


def make_router(sites=2, replication="copies", protocol="available-copies",
                policy=ConflictPolicy.RECOVERABILITY, objects=("x", "y"),
                quorum_read=None, quorum_write=None):
    router = TransactionRouter(
        site_count=sites,
        replication=replication,
        policy=policy,
        retain_terminated=True,
        replication_protocol=protocol,
        quorum_read=quorum_read,
        quorum_write=quorum_write,
    )
    page = PageType()
    for name in objects:
        router.register_object(name, page, compatibility=page.compatibility())
    return router


class TestFactory:
    def test_known_kinds(self):
        assert isinstance(make_replication_protocol("available-copies"), AvailableCopies)
        assert isinstance(make_replication_protocol("quorum"), QuorumConsensus)
        assert isinstance(make_replication_protocol("primary-copy"), PrimaryCopy)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(SimulationError):
            make_replication_protocol("chain")

    def test_quorum_sizes_only_apply_to_quorum(self):
        with pytest.raises(SimulationError):
            make_replication_protocol("primary-copy", read_quorum=2)
        with pytest.raises(SimulationError):
            make_replication_protocol("available-copies", write_quorum=2)

    def test_protocol_instances_are_not_shareable(self):
        protocol = make_replication_protocol("quorum")
        TransactionRouter(site_count=2, replication="copies",
                          replication_protocol=protocol)
        with pytest.raises(ReproError):
            TransactionRouter(site_count=2, replication="copies",
                              replication_protocol=protocol)


class TestQuorumConsensus:
    def test_broken_quorum_is_rejected_at_selection(self):
        router = make_router(sites=3, protocol="quorum",
                             quorum_read=1, quorum_write=1)
        t = router.begin()
        with pytest.raises(SimulationError):
            router.perform(t.gtid, "x", "read")

    @pytest.mark.parametrize("sizes", [
        dict(quorum_read=0),   # non-positive
        dict(quorum_read=5),   # above the copy count
        dict(quorum_write=-1),
    ])
    def test_out_of_range_quorums_are_rejected_not_clamped(self, sizes):
        # Direct router users bypass SimulationParameters.validate; the
        # protocol itself must reject rather than silently rewrite sizes.
        router = make_router(sites=3, protocol="quorum", **sizes)
        t = router.begin()
        with pytest.raises(SimulationError):
            router.perform(t.gtid, "x", "read")
        t2 = router.begin()
        with pytest.raises(SimulationError):
            router.perform(t2.gtid, "x", "write", 1)

    def test_read_contacts_r_replicas(self):
        router = make_router(sites=3, protocol="quorum",
                             quorum_read=2, quorum_write=2)
        t = router.begin()
        request = router.perform(t.gtid, "x", "read")
        assert request.executed
        assert len(request.branch_handles) == 2

    def test_write_lands_at_w_replicas_and_bumps_versions(self):
        router = make_router(sites=3, protocol="quorum",
                             quorum_read=2, quorum_write=2)
        protocol = router.replication
        t = router.begin()
        request = router.perform(t.gtid, "x", "write", 7)
        assert request.executed
        written = sorted(request.branch_handles)
        assert len(written) == 2
        # Versions move at durable commit, not at execute.
        assert all(protocol.version_of(sid, "x") == 0 for sid in written)
        assert router.commit(t.gtid) is TransactionStatus.COMMITTED
        assert all(protocol.version_of(sid, "x") == 1 for sid in written)
        missed = (set(range(3)) - set(written)).pop()
        assert protocol.version_of(missed, "x") == 0

    def test_read_serves_the_highest_version_in_the_quorum(self):
        # W=2 writes leave one stale copy behind; an R=3 read necessarily
        # includes it and must still serve the freshest value.
        router = make_router(sites=3, protocol="quorum",
                             quorum_read=3, quorum_write=2)
        writer = router.begin()
        router.perform(writer.gtid, "x", "write", 42)
        assert router.commit(writer.gtid) is TransactionStatus.COMMITTED
        assert sorted(
            router.replication.version_of(sid, "x") for sid in range(3)
        ) == [0, 1, 1]
        reader = router.begin()
        request = router.perform(reader.gtid, "x", "read")
        assert request.executed
        assert len(request.branch_handles) == 3
        assert request.value == 42

    def test_reads_survive_recovery_without_an_unreadable_window(self):
        # The available-copies refactor target: under quorum, a recovered
        # copy is immediately readable — no per-object window.  Its peers
        # are no fresher here (the write committed at both sites and the
        # versions survived the crash), so no state actually moves: the
        # copy serves its own durable committed state.
        router = make_router(sites=2, protocol="quorum",
                             quorum_read=1, quorum_write=2)
        seed = router.begin()
        router.perform(seed.gtid, "x", "write", 5)
        router.commit(seed.gtid)
        router.fail_site(1)
        router.recover_site(1)
        site = router.sites[1]
        assert site.readable("x")
        assert site.readable("y")
        assert site.scheduler.committed_state("x") == 5
        assert router.replication.stats.catchups == 0

    def test_catchup_copies_only_objects_a_peer_knows_fresher(self):
        # Writes committed while a site is down leave it genuinely stale:
        # catch-up copies exactly those objects (with their versions), and
        # nothing else.
        router = make_router(sites=3, protocol="quorum",
                             quorum_read=2, quorum_write=2)
        protocol = router.replication
        seed = router.begin()
        router.perform(seed.gtid, "x", "write", 5)
        router.commit(seed.gtid)
        victim = sorted(
            sid for sid in range(3) if protocol.version_of(sid, "x") == 1
        )[0]
        router.fail_site(victim)
        writer = router.begin()
        router.perform(writer.gtid, "x", "write", 7)  # lands at the 2 live
        router.commit(writer.gtid)
        router.recover_site(victim)
        site = router.sites[victim]
        assert site.readable("x")
        assert site.scheduler.committed_state("x") == 7
        assert protocol.version_of(victim, "x") == 2
        assert router.replication.stats.catchups == 1
        assert router.replication.stats.catchup_objects == 1  # x, never y

    def test_catchup_never_regresses_a_fresher_recovered_copy(self):
        # The recovered copy may be the only survivor of the last write
        # quorum: a staler live peer must not overwrite its durable state,
        # or the R+W>N read guarantee silently loses committed data.
        router = make_router(sites=3, protocol="quorum",
                             quorum_read=2, quorum_write=2)
        protocol = router.replication
        seed = router.begin()
        router.perform(seed.gtid, "x", "write", 111)
        router.commit(seed.gtid)
        written = sorted(
            sid for sid in range(3) if protocol.version_of(sid, "x") == 1
        )
        stale = (set(range(3)) - set(written)).pop()
        for sid in written:
            router.fail_site(sid)
        router.recover_site(written[0])
        site = router.sites[written[0]]
        # The only live peer (the stale copy) had nothing to teach it.
        assert site.readable("x")
        assert site.scheduler.committed_state("x") == 111
        assert protocol.version_of(written[0], "x") == 1
        assert protocol.version_of(stale, "x") == 0
        reader = router.begin()
        request = router.perform(reader.gtid, "x", "read")
        assert request.executed
        assert request.value == 111

    def test_copy_behind_a_reported_commit_stays_unreadable(self):
        # A crash can drop a pseudo-committed branch, finalizing a commit
        # whose stamp never landed at the dead site.  The recovered copy is
        # behind a *reported* commit: with every fresher copy down it must
        # refuse reads (the safety-net window), never serve the stale value.
        router = make_router(sites=2, protocol="quorum",
                             quorum_read=1, quorum_write=2)
        t1, t2 = router.begin(), router.begin()
        router.perform(t1.gtid, "x", "write", 1)
        router.perform(t2.gtid, "x", "write", 2)
        assert router.commit(t2.gtid) is TransactionStatus.PSEUDO_COMMITTED
        # Site 1 dies with t2's branch still pseudo-committed: the branch is
        # dropped from the outstanding set, t1 (a writer at the site) aborts,
        # and the cascade finalizes t2 with only site 0's copy stamped.
        router.fail_site(1)
        assert t1.status is TransactionStatus.ABORTED
        assert t2.status is TransactionStatus.COMMITTED
        protocol = router.replication
        assert protocol.version_of(0, "x") == 1
        assert protocol.version_of(1, "x") == 0
        router.fail_site(0)
        router.recover_site(1)
        assert not router.sites[1].readable("x")
        reader = router.begin()
        request = router.perform(reader.gtid, "x", "read")
        assert request.aborted
        assert request.abort_reason is AbortReason.SITE_UNAVAILABLE

    def test_quorum_reads_see_the_readers_own_uncommitted_writes(self):
        # Committed versions cannot rank a pending write, so the quorum
        # must be steered through a copy the transaction wrote: site 0
        # recovers tied at version 0 and rotation order alone would serve
        # its stale committed state for the reader's own write.
        router = make_router(sites=3, protocol="quorum",
                             quorum_read=2, quorum_write=2)
        router.fail_site(0)
        t = router.begin()
        request = router.perform(t.gtid, "x", "write", 99)  # lands at 1, 2
        assert sorted(request.branch_handles) == [1, 2]
        router.recover_site(0)
        read = router.perform(t.gtid, "x", "read")
        assert read.executed
        assert read.value == 99
        assert read.value_site in (1, 2)

    def test_recovery_refreshes_stranded_peer_copies(self):
        # A copy that recovered during a full outage (no live source) must
        # not stay unreadable forever: the recovery of a fresher site later
        # retries its catch-up.
        router = make_router(sites=3, protocol="quorum",
                             quorum_read=2, quorum_write=2)
        protocol = router.replication
        seed = router.begin()
        router.perform(seed.gtid, "x", "write", 6)
        router.commit(seed.gtid)
        stamped = sorted(
            sid for sid in range(3) if protocol.version_of(sid, "x") == 1
        )
        stale = (set(range(3)) - set(stamped)).pop()
        for sid in range(3):
            router.fail_site(sid)
        router.recover_site(stale)
        # No live source: the stale copy rightly stays unreadable...
        assert not router.sites[stale].readable("x")
        router.recover_site(stamped[0])
        # ...until a fresh site returns and its recovery catches it up.
        assert router.sites[stale].readable("x")
        assert router.sites[stale].scheduler.committed_state("x") == 6
        assert protocol.version_of(stale, "x") == 1
        # With the stranded copy refreshed, the original fresh copy can
        # crash again without costing read availability.
        router.recover_site(stamped[1])
        router.fail_site(stamped[0])
        reader = router.begin()
        read = router.perform(reader.gtid, "x", "read")
        assert read.executed
        assert read.value == 6

    def test_repeat_writes_stick_to_the_original_write_quorum(self):
        # A liveness change between two writes of the same object must not
        # re-route the second one: every copy the commit stamps must hold
        # the transaction's final state (version equality implies state
        # equality), so repeat writes reuse the original W-set — whose
        # sites are necessarily still alive, or the writer would have
        # aborted.
        router = make_router(sites=3, protocol="quorum",
                             quorum_read=2, quorum_write=2)
        protocol = router.replication
        head = protocol._rotated("x", (0, 1, 2))[0]
        router.fail_site(head)
        t = router.begin()
        first = router.perform(t.gtid, "x", "write", 1)
        landed = sorted(first.branch_handles)
        assert head not in landed
        router.recover_site(head)
        second = router.perform(t.gtid, "x", "write", 2)
        assert sorted(second.branch_handles) == landed
        assert router.commit(t.gtid) is TransactionStatus.COMMITTED
        for sid in landed:
            assert protocol.version_of(sid, "x") == 1
            assert router.sites[sid].scheduler.committed_state("x") == 2
        # The recovered copy deferred readability while the write was in
        # flight, then caught up from a stamped peer at commit: version
        # equality implies state equality at every readable copy.
        assert protocol.version_of(head, "x") == 1
        assert router.sites[head].scheduler.committed_state("x") == 2

    def test_write_below_w_live_copies_is_unavailable(self):
        router = make_router(sites=3, protocol="quorum",
                             quorum_read=2, quorum_write=2)
        router.fail_site(0)
        router.fail_site(1)
        t = router.begin()
        request = router.perform(t.gtid, "x", "write", 1)
        assert request.aborted
        assert router.router_stats.write_unavailable_aborts == 1

    def test_read_below_r_readable_copies_is_unavailable(self):
        router = make_router(sites=3, protocol="quorum",
                             quorum_read=2, quorum_write=2)
        router.fail_site(0)
        router.fail_site(1)
        t = router.begin()
        request = router.perform(t.gtid, "x", "read")
        assert request.aborted
        assert router.router_stats.read_unavailable_aborts == 1


class TestCatchUpSafety:
    def test_catchup_copies_only_committed_state_from_the_source(self):
        # An uncommitted write at the live source must not leak into the
        # recovered copy: readability defers while the write is in flight,
        # and once it aborts the copy serves the committed state only.
        router = make_router(sites=2, protocol="primary-copy")
        seed = router.begin()
        router.perform(seed.gtid, "x", "write", 5)
        router.commit(seed.gtid)
        router.fail_site(1)
        dirty = router.begin()
        router.perform(dirty.gtid, "x", "write", 99)  # uncommitted at site 0
        router.recover_site(1)
        site = router.sites[1]
        assert not site.readable("x")  # deferred: dirty's write is in flight
        router.abort(dirty.gtid)
        assert site.readable("x")
        assert site.scheduler.committed_state("x") == 5

    def test_uncommitted_writes_at_the_dead_site_never_leak(self):
        # The crashed site's volatile state (an uncommitted write) dies with
        # it; recovery restarts from durable committed state plus catch-up.
        router = make_router(sites=2, protocol="quorum",
                             quorum_read=1, quorum_write=2)
        seed = router.begin()
        router.perform(seed.gtid, "x", "write", 5)
        router.commit(seed.gtid)
        dirty = router.begin()
        router.perform(dirty.gtid, "x", "write", 99)  # uncommitted, both sites
        router.fail_site(1)
        assert dirty.status is TransactionStatus.ABORTED
        router.recover_site(1)
        assert router.sites[1].scheduler.committed_state("x") == 5
        reader = router.begin()
        assert router.perform(reader.gtid, "x", "read").value == 5

    def test_install_committed_rejects_copies_with_inflight_work(self):
        router = make_router(sites=2)
        t = router.begin()
        router.perform(t.gtid, "x", "write", 1)
        with pytest.raises(ReproError):
            router.sites[1].install_committed("x", 0)

    def test_committed_snapshot_requires_a_live_site(self):
        router = make_router(sites=2)
        router.fail_site(1)
        with pytest.raises(ReproError):
            router.sites[1].committed_snapshot()


class TestUnmaterializedCatchUp:
    """The simulation workloads register copies with ``materialize_state=False``:
    catch-up then moves no state, only readability."""

    @staticmethod
    def make_site():
        site = Site(0)
        page = PageType()
        compatibility = page.compatibility()
        site.register_objects(page, {"x": compatibility}, initial_state=3,
                              materialize_state=False, replicated=True)
        site.register_objects(page, {"y": compatibility}, replicated=True)
        return site

    def test_committed_snapshot_omits_unmaterialized_copies(self):
        site = self.make_site()
        assert site.committed_snapshot() == {"y": 0}
        assert site.committed_snapshot(["x"]) == {}

    def test_installing_nothing_marks_readable_and_keeps_the_state(self):
        site = self.make_site()
        site.fail()
        site.recover()
        assert not site.readable("x") and not site.readable("y")
        site.install_committed("x", None)
        manager = site.scheduler.object("x")
        assert site.readable("x") and not site.readable("y")
        assert manager.committed_state == manager.current_state == 3
        site.install_committed("y", 7)
        assert site.scheduler.object("y").committed_state == 7

    def test_quorum_catch_up_of_unmaterialized_copies(self):
        router = TransactionRouter(site_count=3, replication="copies",
                                   replication_protocol="quorum",
                                   quorum_read=2, quorum_write=2)
        page = PageType()
        router.register_object("x", page, compatibility=page.compatibility(),
                               materialize_state=False)
        protocol = router.replication
        seed = router.begin()
        assert router.perform(seed.gtid, "x", "write", 5).value is None
        router.commit(seed.gtid)
        victim = min(sid for sid in range(3) if protocol.version_of(sid, "x") == 1)
        router.fail_site(victim)
        writer = router.begin()
        router.perform(writer.gtid, "x", "write", 7)
        router.commit(writer.gtid)
        router.recover_site(victim)
        site = router.sites[victim]
        assert site.readable("x")
        assert protocol.version_of(victim, "x") == 2
        assert protocol.stats.catchups == 1
        assert site.scheduler.committed_state("x") == 0  # never materialized


class TestPrimaryCopy:
    def test_writes_funnel_through_the_primary_first(self):
        router = make_router(sites=3, protocol="primary-copy")
        t = router.begin()
        request = router.perform(t.gtid, "x", "write", 1)
        assert request.executed
        assert sorted(request.branch_handles) == [0, 1, 2]
        assert router.replication.primary_of("x") == 0

    def test_failover_elects_the_lowest_live_site_deterministically(self):
        router = make_router(sites=3, protocol="primary-copy")
        t = router.begin()
        router.perform(t.gtid, "x", "write", 1)
        router.commit(t.gtid)
        assert router.replication.primary_of("x") == 0
        router.fail_site(0)
        assert router.replication.stats.failovers == 1
        assert router.replication.primary_of("x") == 1
        router.fail_site(1)
        assert router.replication.stats.failovers == 2
        assert router.replication.primary_of("x") == 2
        # No fail-back: a recovered ex-primary rejoins as a backup.
        router.recover_site(0)
        assert router.replication.primary_of("x") == 2

    def test_writes_survive_the_primary_crash(self):
        router = make_router(sites=2, protocol="primary-copy")
        seed = router.begin()
        router.perform(seed.gtid, "x", "write", 3)
        router.commit(seed.gtid)
        router.fail_site(0)
        t = router.begin()
        request = router.perform(t.gtid, "x", "write", 4)
        assert request.executed
        assert list(request.branch_handles) == [1]
        assert router.commit(t.gtid) is TransactionStatus.COMMITTED
        assert router.sites[1].scheduler.committed_state("x") == 4

    def test_recovery_during_an_inflight_write_defers_readability(self):
        # Site 1 recovers while T's write of x is uncommitted at the
        # primary only: committed versions cannot see that write yet, so
        # the copy defers readability (else reads served the pre-write
        # value after T committed) and is refreshed when T finishes.
        router = make_router(sites=2, protocol="primary-copy")
        router.fail_site(1)
        t = router.begin()
        router.perform(t.gtid, "x", "write", 77)  # lands at site 0 only
        router.recover_site(1)
        assert not router.sites[1].readable("x")
        assert router.sites[1].readable("y")  # nothing in flight for y
        own_read = router.perform(t.gtid, "x", "read")
        assert own_read.value == 77  # read-your-writes: routed to site 0
        assert router.commit(t.gtid) is TransactionStatus.COMMITTED
        # The commit resolves the deferral through catch-up.
        assert router.sites[1].readable("x")
        assert router.sites[1].scheduler.committed_state("x") == 77
        reader = router.begin()
        assert router.perform(reader.gtid, "x", "read").value == 77

    def test_recovered_replica_serves_reads_immediately(self):
        # No writes landed while site 1 was down: its own durable state is
        # current (versions prove it), so it is readable with no state copy.
        router = make_router(sites=2, protocol="primary-copy")
        seed = router.begin()
        router.perform(seed.gtid, "x", "write", 8)
        router.commit(seed.gtid)
        router.fail_site(1)
        router.recover_site(1)
        assert router.sites[1].readable("x")
        assert router.sites[1].scheduler.committed_state("x") == 8
        assert router.replication.stats.catchups == 0

    def test_catchup_copies_writes_missed_while_down(self):
        router = make_router(sites=2, protocol="primary-copy")
        seed = router.begin()
        router.perform(seed.gtid, "x", "write", 8)
        router.commit(seed.gtid)
        router.fail_site(1)
        writer = router.begin()
        router.perform(writer.gtid, "x", "write", 9)  # lands at site 0 only
        router.commit(writer.gtid)
        router.recover_site(1)
        assert router.sites[1].readable("x")
        assert router.sites[1].scheduler.committed_state("x") == 9
        assert router.replication.stats.catchups == 1
        assert router.replication.stats.catchup_objects == 1  # x, never y

    def test_full_outage_recovery_serves_its_own_durable_state(self):
        # Both copies durably hold the committed value; recovering one with
        # no live peer must not leave it unreadable forever (nor serve
        # anything but the committed state).
        router = make_router(sites=2, protocol="primary-copy")
        seed = router.begin()
        router.perform(seed.gtid, "x", "write", 4)
        router.commit(seed.gtid)
        router.fail_site(1)
        router.fail_site(0)
        router.recover_site(0)
        assert router.sites[0].readable("x")
        reader = router.begin()
        request = router.perform(reader.gtid, "x", "read")
        assert request.executed
        assert request.value == 4


def _touch(state, args):
    from repro.core.specification import OperationResult
    return OperationResult(state=state, value="ok")


class _MixedType(AtomicType):
    """Three-operation type whose pairs mix every conflict class.

    ``g`` *conflicts* with an uncommitted ``f`` (it must wait) but is merely
    *recoverable* relative to an uncommitted ``h`` (it executes with a
    commit dependency); every other pair commutes.  That mix is what lets a
    grant inside a termination cascade create a commit-dependency edge no
    submit ever carried — the late-closing cycle of the ROADMAP.
    """

    name = "mixed"

    def __init__(self):
        from repro.core.specification import OperationSpec
        super().__init__({
            op: OperationSpec(name=op, function=_touch) for op in ("f", "g", "h")
        })

    def initial_state(self):
        return 0

    def compatibility(self):
        ops = ("f", "g", "h")
        yes, no = Answer.YES, Answer.NO
        commutativity = RelationTable.from_rows(
            "mixed-commutativity", ops,
            {"f": [yes, yes, yes], "g": [no, yes, no], "h": [yes, yes, yes]},
        )
        recoverability = RelationTable.from_rows(
            "mixed-recoverability", ops,
            {"g": [no, no, yes]},
        )
        return CompatibilitySpec(
            type_name="mixed",
            commutativity=commutativity,
            recoverability=recoverability,
        )


class TestCycleSweep:
    def _wedge(self):
        """Build the ROADMAP's late-closing cycle on a two-site router.

        Object ``a`` (the mixed type) lives at site 0, page ``b`` at site 1.
        A's blocked ``g(a)`` is *granted* during C's termination cascade and
        only then acquires its commit dependency on B's uncommitted ``h(a)``
        — an edge no submit carried, so the per-submit union check never
        sees the cycle A -> B (site 0) / B -> A (site 1) it closes.
        """
        router = TransactionRouter(
            site_count=2, replication="hash",
            policy=ConflictPolicy.RECOVERABILITY, retain_terminated=True,
        )
        page, mixed = PageType(), _MixedType()
        names = [f"obj{i}" for i in range(16)]
        a = next(n for n in names if router.placement.sites_for(n) == (0,))
        b = next(n for n in names if router.placement.sites_for(n) == (1,))
        router.register_object(a, mixed, compatibility=mixed.compatibility())
        router.register_object(b, page, compatibility=page.compatibility())
        ta, tc, tb = router.begin(), router.begin(), router.begin()
        assert router.perform(ta.gtid, b, "write", 1).executed
        assert router.perform(tb.gtid, a, "h").executed
        assert router.perform(tc.gtid, a, "f").executed  # f/h commute
        # B's write of b is recoverable after A's: commit-dependency B -> A.
        assert router.perform(tb.gtid, b, "write", 2).executed
        # A's g conflicts with C's uncommitted f: blocked, edge A -> C only
        # (the recoverable h adds no edge until g actually executes).
        assert router.perform(ta.gtid, a, "g").blocked
        assert router.router_stats.cross_site_deadlock_aborts == 0
        # C's commit grants g inside the termination cascade; executing it
        # adds the commit dependency A -> B that closes the cycle, with no
        # submit for the per-submit check to piggyback on.
        assert router.commit(tc.gtid) is TransactionStatus.COMMITTED
        assert ta.current_request.executed
        return router, ta, tb

    def test_late_closing_cycle_is_invisible_to_the_submit_check(self):
        router, ta, tb = self._wedge()
        assert ta.status is TransactionStatus.ACTIVE
        assert tb.status is TransactionStatus.ACTIVE
        assert router.router_stats.cross_site_deadlock_aborts == 0
        # Unswept, the cycle reaches the commit path, where each site's
        # cascade respects only its local edges: both members durably
        # commit in a circular global dependency order — exactly the
        # outcome the cycle detector exists to prevent.
        router.commit(ta.gtid)
        router.commit(tb.gtid)
        assert ta.status is TransactionStatus.COMMITTED
        assert tb.status is TransactionStatus.COMMITTED

    def test_sweep_aborts_the_youngest_active_cycle_member(self):
        router, ta, tb = self._wedge()
        assert router.sweep_global_cycles() == 1
        # B is the youngest ACTIVE member of the cycle: the deadlock victim.
        assert tb.status is TransactionStatus.ABORTED
        assert ta.status is TransactionStatus.ACTIVE
        assert router.router_stats.cross_site_deadlock_aborts == 1
        assert router.router_stats.cycle_sweeps == 1
        # The survivor commits durably (its dependency died with B).
        assert router.commit(ta.gtid) is TransactionStatus.COMMITTED

    def test_quiet_sweep_is_gated_on_the_mutation_counters(self):
        router, ta, tb = self._wedge()
        assert router.sweep_global_cycles() == 1
        sweeps = router.router_stats.cycle_sweeps
        # Nothing mutated since: the sweep short-circuits without a DFS.
        assert router.sweep_global_cycles() == 0
        assert router.router_stats.cycle_sweeps == sweeps

    def test_failing_a_down_site_is_rejected_cleanly(self):
        router = make_router(sites=2)
        router.fail_site(1)
        with pytest.raises(ReproError):
            router.fail_site(1)

    def test_single_site_never_sweeps(self):
        router = make_router(sites=1, replication="single")
        assert router.sweep_global_cycles() == 0
        assert router.router_stats.cycle_sweeps == 0

    def test_mutation_total_is_monotonic_across_fail_recover(self):
        # The sweep gate compares totals for equality: if a crash dropped a
        # site's count from the sum, fail+recover could return the total to
        # an already-seen value and silence the sweep while a cycle closed.
        router = make_router(sites=2)
        t = router.begin()
        router.perform(t.gtid, "x", "write", 1)
        router.commit(t.gtid)
        before = router._cycles.union_mutations()
        assert before > 0
        router.fail_site(1)
        router.recover_site(1)
        assert router._cycles.union_mutations() >= before


class TestSimulationWiring:
    SCHEDULE = ((0.5, "fail", 1), (1.0, "recover", 1))

    def _params(self, protocol, **extra):
        return SimulationParameters(
            mpl_level=15, total_completions=120, database_size=100, seed=11,
            site_count=2, replication="copies", replication_protocol=protocol,
            failure_schedule=self.SCHEDULE, **extra)

    @pytest.mark.parametrize("protocol,extra", [
        ("available-copies", {}),
        ("quorum", dict(quorum_read=1, quorum_write=2)),
        ("primary-copy", {}),
    ])
    def test_protocol_runs_are_deterministic(self, protocol, extra):
        first = run_simulation(self._params(protocol, **extra), "readwrite")
        second = run_simulation(self._params(protocol, **extra), "readwrite")
        assert first.counters() == second.counters()
        assert first.as_dict() == second.as_dict()

    def test_multi_site_runs_carry_replication_counters(self):
        metrics = run_simulation(self._params("primary-copy"), "readwrite")
        counters = metrics.counters()
        assert counters["replication_messages"] > 0
        assert counters["replication_catchups"] >= 1
        assert "replication_cycle_sweeps" in counters
        assert "replication_read_unavailable_aborts" in counters

    def test_single_site_runs_carry_no_replication_counters(self):
        params = SimulationParameters(
            mpl_level=10, total_completions=60, database_size=100, seed=3)
        counters = run_simulation(params, "readwrite").counters()
        assert not any(name.startswith("replication_") for name in counters)

    def test_catchup_lifts_the_unreadable_window(self):
        # Same run, two protocols: after site 1 recovers, available-copies
        # still refreshes per object while primary-copy caught up at once.
        available = run_simulation(self._params("available-copies"), "readwrite")
        primary = run_simulation(self._params("primary-copy"), "readwrite")
        assert available.counters()["replication_catchups"] == 0
        assert primary.counters()["replication_catchups"] >= 1

    def test_quorum_parameters_are_validated(self):
        with pytest.raises(SimulationError):
            self._params("quorum", quorum_read=1, quorum_write=1)
        with pytest.raises(SimulationError):
            self._params("available-copies", quorum_read=1)
        with pytest.raises(SimulationError):
            self._params("quorum", quorum_read=5)

    def test_explicit_quorums_require_copies_placement(self):
        # Hash placement puts one copy per object: an explicit 2/2 quorum
        # would be silently clamped to 1/1, so it is rejected instead.
        with pytest.raises(SimulationError):
            SimulationParameters(
                site_count=3, replication="hash",
                replication_protocol="quorum", quorum_read=2, quorum_write=2)
        # Without explicit sizes the majority of each object's copy count
        # applies, which degenerates gracefully to 1/1 for single copies.
        SimulationParameters(site_count=3, replication="hash",
                             replication_protocol="quorum")

    def test_heterogeneous_site_units(self):
        params = SimulationParameters(
            mpl_level=10, total_completions=80, database_size=100, seed=7,
            site_count=2, replication="copies",
            resource_placement="per_site", site_units=(2, 1), msg_time=0.001)
        counters = run_simulation(params, "readwrite").counters()
        for site in (0, 1):
            assert counters[f"resource_site{site}_cpu_served"] > 0

    def test_site_units_runs_are_not_reported_as_infinite(self):
        params = SimulationParameters(
            site_count=2, replication="copies",
            resource_placement="per_site", site_units=(2, 1))
        assert not params.infinite_resources
        assert params.describe()["resource_units"] == "per-site"
        assert params.describe()["site_units"] == (2, 1)

    def test_site_units_validation(self):
        with pytest.raises(SimulationError):
            SimulationParameters(site_count=2, replication="copies",
                                 resource_placement="per_site", site_units=(2,))
        with pytest.raises(SimulationError):
            SimulationParameters(site_count=2, replication="copies",
                                 site_units=(2, 1))  # global placement
        with pytest.raises(SimulationError):
            SimulationParameters(site_count=2, replication="copies",
                                 resource_placement="per_site", site_units=(2, 0))
        with pytest.raises(SimulationError):
            # Ambiguous: the per-site list replaces resource_units.
            SimulationParameters(site_count=2, replication="copies",
                                 resource_placement="per_site",
                                 resource_units=8, site_units=(1, 1))
