"""Unit tests for the pluggable commit protocols (repro.distributed.commit).

Covers the protocol factory, the one-phase baseline's equivalence with the
pre-refactor commit path, two-phase W-ack durability under quorum consensus
(re-replication on site failure, hold-until-recovery, the prepare timeout),
commit-time cycle certification (the sweep-race residue), the load-ranked
quorum read selection, and the simulation-layer wiring (parameters, the
``commit_*`` and ``replication_under_replicated_window`` counters, CLI).
"""

import io

import pytest

from repro.adts.page import PageType
from repro.cli import main as cli_main
from repro.core.errors import ReproError, SimulationError
from repro.core.policy import ConflictPolicy
from repro.core.transaction import TransactionStatus
from repro.distributed import (
    OnePhase,
    TransactionRouter,
    TwoPhase,
    make_commit_protocol,
)
from repro.sim.params import SimulationParameters
from repro.sim.simulator import run_simulation

from test_cycle_sweep_oracle import DOUBLE_CRASH
from test_replication_protocols import _MixedType
from test_resources import counters_crc32


def make_router(sites=3, commit="two-phase", protocol="quorum",
                quorum_read=2, quorum_write=2, objects=("x", "y"), **extra):
    router = TransactionRouter(
        site_count=sites,
        replication="copies",
        retain_terminated=True,
        replication_protocol=protocol,
        quorum_read=quorum_read,
        quorum_write=quorum_write,
        commit_protocol=commit,
        **extra,
    )
    page = PageType()
    for name in objects:
        router.register_object(name, page, compatibility=page.compatibility())
    return router


class TestFactory:
    def test_known_kinds(self):
        assert isinstance(make_commit_protocol("one-phase"), OnePhase)
        assert isinstance(make_commit_protocol("two-phase"), TwoPhase)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(SimulationError):
            make_commit_protocol("three-phase")

    def test_prepare_timeout_only_applies_to_two_phase(self):
        assert make_commit_protocol("two-phase", prepare_timeout=0.5).prepare_timeout == 0.5
        with pytest.raises(SimulationError):
            make_commit_protocol("one-phase", prepare_timeout=0.5)
        with pytest.raises(SimulationError):
            make_commit_protocol("two-phase", prepare_timeout=0.0)

    def test_protocol_instances_are_not_shareable(self):
        protocol = make_commit_protocol("two-phase")
        TransactionRouter(site_count=2, replication="copies",
                          commit_protocol=protocol)
        with pytest.raises(ReproError):
            TransactionRouter(site_count=2, replication="copies",
                              commit_protocol=protocol)

    def test_timeout_cannot_accompany_a_protocol_instance(self):
        with pytest.raises(ReproError):
            TransactionRouter(site_count=2, replication="copies",
                              commit_protocol=make_commit_protocol("two-phase"),
                              prepare_timeout=0.5)

    def test_one_phase_is_the_default(self):
        router = TransactionRouter(site_count=2, replication="copies")
        assert isinstance(router.commit_protocol, OnePhase)


def _pseudo_committed_writer(router):
    """A pseudo-committed write of ``x`` plus the dependency holding it.

    ``t1`` writes first, ``t2``'s write of the same page is recoverable
    after it (commit dependency), so ``commit(t2)`` pseudo-commits at every
    branch of its sticky W-set.  Returns ``(t1, t2, w_set)``.
    """
    t1, t2 = router.begin(), router.begin()
    router.perform(t1.gtid, "x", "write", 1)
    request = router.perform(t2.gtid, "x", "write", 2)
    assert router.commit(t2.gtid) is TransactionStatus.PSEUDO_COMMITTED
    return t1, t2, sorted(request.branch_handles)


class TestTwoPhaseDurability:
    def test_crash_triggers_re_replication_to_the_spare(self):
        # The acceptance scenario: a site crash after pseudo-commit must
        # never yield a reported-durable object with fewer than W stamped
        # live copies — re-replication restores W without waiting for the
        # dead site to recover.
        router = make_router(commit="two-phase")
        protocol = router.replication
        t1, t2, w_set = _pseudo_committed_writer(router)
        spare = (set(range(3)) - set(w_set)).pop()
        router.fail_site(w_set[0])
        # t1 (an uncommitted writer at the dead site) aborts; its cascade
        # drains t2's surviving branch, and re-replication stamps the spare
        # before the commit is reported.
        assert t1.status is TransactionStatus.ABORTED
        assert t2.status is TransactionStatus.COMMITTED
        live_stamped = [
            sid for sid in range(3)
            if router.sites[sid].status.is_up
            and protocol.version_of(sid, "x") >= 1
        ]
        assert len(live_stamped) == 2  # W stamped live copies, spare included
        assert spare in live_stamped
        assert router.sites[spare].scheduler.committed_state("x") == 2
        assert protocol.stats.under_replicated_window == 0
        assert router.commit_protocol.stats.re_replicated_objects == 1

    def test_one_phase_reports_the_same_crash_under_replicated(self):
        router = make_router(commit="one-phase")
        protocol = router.replication
        t1, t2, w_set = _pseudo_committed_writer(router)
        spare = (set(range(3)) - set(w_set)).pop()
        router.fail_site(w_set[0])
        assert t2.status is TransactionStatus.COMMITTED
        # The extracted baseline drops the dead branch: one stamped live
        # copy, the spare untouched, and the window counter records it.
        assert protocol.version_of(spare, "x") == 0
        assert protocol.stats.under_replicated_window == 1
        assert router.commit_protocol.stats.re_replicated_objects == 0

    def test_no_spare_holds_the_report_until_recovery(self):
        # Two sites, W=2: when a W-set member dies there is nowhere to
        # re-replicate — the commit survives as a blocked participant and
        # reports durable only once recovery catch-up restores the stamp.
        router = make_router(sites=2, commit="two-phase",
                             quorum_read=1, quorum_write=2)
        protocol = router.replication
        t1, t2, _ = _pseudo_committed_writer(router)
        router.fail_site(1)
        assert t1.status is TransactionStatus.ABORTED
        assert t2.status is TransactionStatus.PSEUDO_COMMITTED  # held, not dropped
        assert protocol.stats.under_replicated_window == 0
        router.recover_site(1)
        assert t2.status is TransactionStatus.COMMITTED
        assert protocol.version_of(1, "x") == 1
        assert router.sites[1].scheduler.committed_state("x") == 2
        assert protocol.stats.under_replicated_window == 0

    def test_busy_spare_defers_re_replication_until_it_frees(self):
        # The spare holds in-flight work on x: installing over uncommitted
        # operations is unsafe, so the commit is held — and retried the
        # moment the blocking transaction finishes.
        router = make_router(commit="two-phase")
        protocol = router.replication
        t1, t2, w_set = _pseudo_committed_writer(router)
        spare = (set(range(3)) - set(w_set)).pop()
        # Bias the load-ranked read quorum so a reader parks an executed,
        # still-uncommitted operation on the spare's copy of x.
        loads = {spare: 0, w_set[1]: 1, w_set[0]: 5}
        for sid, load in loads.items():
            router.sites[sid].attach_domain(TestLoadRankedQuorumReads._Domain(load))
        blocker = router.begin()
        read = router.perform(blocker.gtid, "x", "read")
        assert spare in read.branch_handles
        assert router.sites[spare].has_uncommitted("x")
        router.fail_site(w_set[0])
        assert t2.status is TransactionStatus.PSEUDO_COMMITTED  # spare busy: held
        assert protocol.stats.under_replicated_window == 0
        router.abort(blocker.gtid)
        # The blocker's finish frees the spare: the restore retries and the
        # held commit reports with W live stamped copies.
        assert t2.status is TransactionStatus.COMMITTED
        assert protocol.version_of(spare, "x") == 1

    def test_acks_and_prepare_traffic_are_counted(self):
        router = make_router(commit="two-phase")
        t = router.begin()
        router.perform(t.gtid, "x", "write", 5)
        assert router.commit(t.gtid) is TransactionStatus.COMMITTED
        stats = router.commit_protocol.stats
        assert stats.prepare_rounds == 1
        assert stats.prepare_acks == 2  # both W-set branches drained
        assert stats.prepare_messages == 1


class TestCertification:
    def _wedge(self, commit):
        """The ROADMAP's late-closing cycle, router-level (see
        tests/test_replication_protocols.py::TestCycleSweep for the
        construction); every member completes (pseudo-commits) between
        sweep ticks — no sweep runs here at all."""
        router = TransactionRouter(
            site_count=2, replication="hash",
            policy=ConflictPolicy.RECOVERABILITY, retain_terminated=True,
            commit_protocol=commit,
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
        assert router.perform(tc.gtid, a, "f").executed
        assert router.perform(tb.gtid, b, "write", 2).executed
        assert router.perform(ta.gtid, a, "g").blocked
        # C's commit grants g inside the termination cascade, closing the
        # cross-site cycle A -> B / B -> A with no submit to piggyback on.
        assert router.commit(tc.gtid) is TransactionStatus.COMMITTED
        assert ta.current_request.executed
        return router, ta, tb

    def test_one_phase_reproduces_the_circular_global_order(self):
        router, ta, tb = self._wedge("one-phase")
        router.commit(ta.gtid)
        router.commit(tb.gtid)
        # Every member reaches (pseudo-)commit between sweep ticks: the
        # per-branch drains honour only local edges, so both durably commit
        # in a circular global dependency order — the sweep-race residue.
        assert ta.status is TransactionStatus.COMMITTED
        assert tb.status is TransactionStatus.COMMITTED
        assert router.router_stats.cross_site_deadlock_aborts == 0

    def test_two_phase_certifies_and_aborts_a_victim(self):
        router, ta, tb = self._wedge("two-phase")
        # The prepare step re-checks the union graph before any branch
        # stamps durable: B, the youngest ACTIVE cycle member, is aborted
        # (the sweep's victim rule) and A commits cleanly.
        assert router.commit(ta.gtid) is TransactionStatus.COMMITTED
        assert tb.status is TransactionStatus.ABORTED
        assert router.commit_protocol.stats.certification_aborts == 1
        assert router.router_stats.cross_site_deadlock_aborts == 1

    def test_the_committer_is_the_victim_when_it_is_youngest(self):
        router, ta, tb = self._wedge("two-phase")
        # Committing B first: B is itself the youngest ACTIVE member, so
        # certification sacrifices the committer and the commit reports the
        # abort to the caller instead of proceeding.
        assert router.commit(tb.gtid) is TransactionStatus.ABORTED
        assert tb.status is TransactionStatus.ABORTED
        assert router.commit(ta.gtid) is TransactionStatus.COMMITTED


class TestLoadRankedQuorumReads:
    class _Domain:
        def __init__(self, load):
            self.load = load

    def test_quorum_members_prefer_least_loaded_replicas(self):
        router = make_router(commit="one-phase")
        rotation = router.replication._rotated("x", (0, 1, 2))
        loads = {rotation[0]: 5, rotation[1]: 2, rotation[2]: 0}
        for sid, load in loads.items():
            router.sites[sid].attach_domain(self._Domain(load))
        t = router.begin()
        request = router.perform(t.gtid, "x", "read")
        # R=2 members: the two least-loaded replicas, not the rotation head.
        assert sorted(request.branch_handles) == sorted([rotation[2], rotation[1]])

    def test_rotation_order_breaks_load_ties(self):
        router = make_router(commit="one-phase")
        rotation = router.replication._rotated("x", (0, 1, 2))
        for sid in range(3):
            router.sites[sid].attach_domain(self._Domain(1))
        t = router.begin()
        request = router.perform(t.gtid, "x", "read")
        assert sorted(request.branch_handles) == sorted(rotation[:2])

    def test_without_domains_the_rotation_order_is_unchanged(self):
        router = make_router(commit="one-phase")
        rotation = router.replication._rotated("x", (0, 1, 2))
        t = router.begin()
        request = router.perform(t.gtid, "x", "read")
        assert sorted(request.branch_handles) == sorted(rotation[:2])

    def test_own_write_copies_still_lead_the_quorum(self):
        # Read-your-writes outranks load: a copy holding the reader's own
        # uncommitted write joins the quorum however loaded it is.
        router = make_router(commit="one-phase")
        t = router.begin()
        written = sorted(router.perform(t.gtid, "x", "write", 9).branch_handles)
        loads = {sid: (10 if sid in written else 0) for sid in range(3)}
        for sid, load in loads.items():
            router.sites[sid].attach_domain(self._Domain(load))
        request = router.perform(t.gtid, "x", "read")
        assert request.value == 9
        assert request.value_site in written


SCHEDULE = ((0.5, "fail", 1), (1.0, "recover", 1),
            (1.3, "fail", 0), (1.6, "recover", 0))


def _sim_params(commit, **extra):
    return SimulationParameters(
        mpl_level=15, total_completions=150, database_size=100, seed=11,
        site_count=3, replication="copies", replication_protocol="quorum",
        quorum_read=2, quorum_write=2, commit_protocol=commit,
        failure_schedule=SCHEDULE, **extra)


class TestSimulationWiring:
    @pytest.mark.parametrize("commit,extra", [
        ("one-phase", {}),
        ("two-phase", {}),
        ("two-phase", dict(prepare_timeout=0.05)),
    ])
    def test_commit_protocol_runs_are_deterministic(self, commit, extra):
        first = run_simulation(_sim_params(commit, **extra), "readwrite")
        second = run_simulation(_sim_params(commit, **extra), "readwrite")
        assert first.counters() == second.counters()
        assert first.as_dict() == second.as_dict()

    #: Cross-interpreter pins for the scripted double-crash scenario: the
    #: streams are CRC32-derived, so these values must reproduce on every
    #: CPython the CI matrix runs (verified identical on 3.11 and 3.13).
    PINNED = {
        "one-phase": dict(window=12, forced=0, re_replicated=0, rounds=0,
                          events=2109, simulated_time=7.95),
        "two-phase": dict(window=0, forced=0, re_replicated=14, rounds=150,
                          events=2070, simulated_time=8.3),
    }

    @pytest.mark.parametrize("commit", sorted(PINNED))
    def test_double_crash_counters_are_pinned_cross_interpreter(self, commit):
        expected = self.PINNED[commit]
        metrics = run_simulation(_sim_params(commit), "readwrite")
        counters = metrics.counters()
        assert counters["replication_under_replicated_window"] == expected["window"]
        assert counters["commit_forced_reports"] == expected["forced"]
        assert counters["commit_re_replicated_objects"] == expected["re_replicated"]
        assert counters["commit_prepare_rounds"] == expected["rounds"]
        assert counters["events_processed"] == expected["events"]
        assert round(metrics.simulated_time, 10) == expected["simulated_time"]

    def test_long_double_crash_stream_is_pinned(self):
        # ``q3-2pc-crash`` of ``benchmarks/perf`` at a twelfth of the size:
        # every simulated statistic, recorded before the sweep became
        # edge-driven and the replica rotation memoised.
        metrics = run_simulation(SimulationParameters(
            mpl_level=25, total_completions=300, seed=1, site_count=3,
            replication="copies", replication_protocol="quorum", quorum_read=2,
            quorum_write=2, commit_protocol="two-phase", msg_time=0.002,
            failure_schedule=DOUBLE_CRASH), "readwrite")
        counters = metrics.counters()
        assert counters["replication_cycle_sweeps"] == 114
        assert counters["replication_catchups"] == 17
        assert counters_crc32(metrics) == 3498694962

    def test_one_phase_crash_opens_the_under_replication_window(self):
        counters = run_simulation(_sim_params("one-phase"), "readwrite").counters()
        assert counters["replication_under_replicated_window"] > 0
        assert counters["commit_prepare_rounds"] == 0
        assert counters["commit_re_replicated_objects"] == 0

    def test_two_phase_closes_the_window_by_re_replicating(self):
        counters = run_simulation(_sim_params("two-phase"), "readwrite").counters()
        assert counters["replication_under_replicated_window"] == 0
        assert counters["commit_forced_reports"] == 0
        assert counters["commit_prepare_rounds"] > 0
        assert counters["commit_prepare_acks"] >= counters["commit_prepare_rounds"]
        assert counters["commit_re_replicated_objects"] > 0

    def test_prepare_timeout_trades_the_window_for_latency(self):
        counters = run_simulation(
            _sim_params("two-phase", prepare_timeout=0.05), "readwrite"
        ).counters()
        # The timeout force-reports commits still below W stamps — visible
        # as forced reports and as reopened window counts.
        assert counters["commit_forced_reports"] > 0
        assert counters["replication_under_replicated_window"] > 0
        assert (counters["replication_under_replicated_window"]
                >= counters["commit_forced_reports"])

    def test_single_site_runs_carry_no_commit_counters(self):
        params = SimulationParameters(
            mpl_level=10, total_completions=60, database_size=100, seed=3,
            commit_protocol="two-phase")
        counters = run_simulation(params, "readwrite").counters()
        for name in ("commit_prepare_rounds", "commit_prepare_acks",
                     "commit_certifications", "commit_re_replications",
                     "commit_forced_reports"):
            assert name not in counters
        # The scheduler-side commit_dependency_edges counter predates the
        # commit-protocol family and stays, keeping the pinned set closed.
        assert "commit_dependency_edges" in counters

    def test_explicit_one_phase_matches_the_default_run(self):
        base = dict(mpl_level=15, total_completions=100, database_size=100,
                    seed=11, site_count=2, replication="copies",
                    failure_schedule=((1.0, "fail", 1), (2.5, "recover", 1)))
        default = run_simulation(SimulationParameters(**base), "readwrite")
        explicit = run_simulation(
            SimulationParameters(commit_protocol="one-phase", **base), "readwrite")
        assert default.counters() == explicit.counters()
        assert default.as_dict() == explicit.as_dict()

    def test_parameters_are_validated(self):
        with pytest.raises(SimulationError):
            SimulationParameters(commit_protocol="three-phase")
        with pytest.raises(SimulationError):
            SimulationParameters(prepare_timeout=0.5)  # one-phase default
        with pytest.raises(SimulationError):
            SimulationParameters(commit_protocol="two-phase", prepare_timeout=0.0)


class TestCli:
    def _run(self, *argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    def test_commit_protocol_flags_flow_into_the_json_echo(self):
        import json
        code, text = self._run(
            "simulate", "--database-size", "50", "--mpl", "8",
            "--completions", "40", "--sites", "3",
            "--replication-protocol", "quorum", "--quorum-r", "2",
            "--quorum-w", "2", "--commit-protocol", "two-phase",
            "--prepare-timeout", "0.5", "--fail-at", "0.5:1",
            "--recover-at", "1.0:1", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["sites"]["commit_protocol"] == "two-phase"
        assert payload["params"]["prepare_timeout"] == 0.5
        assert payload["sites"]["commit_counters"]["prepare_rounds"] > 0
        assert payload["counters"]["commit_prepare_rounds"] > 0
        assert "replication_under_replicated_window" in payload["counters"]

    def test_prepare_timeout_without_two_phase_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            self._run("simulate", "--sites", "2", "--prepare-timeout", "0.5")
        assert "two-phase" in capsys.readouterr().err
