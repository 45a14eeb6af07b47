"""The replicated path, checked against its definitions after every event.

Seeded read/write runs over three sites — quorum R2/W2 and primary-copy,
one- and two-phase commit, the recoverability and strict-2PL backends — are
driven one engine event at a time through staggered single-site crashes plus
an overlapping one (two sites down at once), and between every two events the
router must satisfy:

* **the write record is the routing** — every live global transaction's
  ``writes`` lists exactly the (object, site) pairs its writes were routed
  to, and covers every write its live branches executed;
* **an unreadable copy has a reason** — every copy in an up site's
  ``unreadable`` set is behind its object's latest stamped version, or a live
  peer's uncommitted log holds a write of the object that the copy missed.

Both checks read only what the router and the schedulers expose (the routed
writes are recorded at the branch submits, read-only-ness comes from the
specifications); mutants that drop one record entry or skip one
``mark_readable`` are caught.
"""

import pytest
from stepping import CheckedSimulation, double_crashes

from repro.core.policy import ConflictPolicy
from repro.distributed.site import Site
from repro.sim.params import SimulationParameters
from repro.sim.simulator import run_simulation


def is_write(router, object_name, invocation):
    return not router._specs[object_name].operation(invocation.op).is_read_only


# ----------------------------------------------------------------------
# The definitions
# ----------------------------------------------------------------------
def check_write_records(router, routed):
    for gtid, transaction in router.transactions.items():
        record = {(name, sid) for name, sites in transaction.writes.items() for sid in sites}
        assert record == routed.get(gtid, set()), gtid
        for sid, branch in transaction.branches.items():
            site = router.sites[sid]
            if not site.status.is_up or branch.generation != site.generation:
                continue
            local = site.scheduler.transactions.get(branch.local_tid)
            if local is None:
                continue
            for event in local.events:
                if is_write(router, event.object_name, event.invocation):
                    assert (event.object_name, sid) in record, (gtid, event)


def missed_write(router, site, name):
    """A live peer's uncommitted log holds a write of ``name``."""
    for sid in router.placement.sites_for(name):
        peer = router.sites[sid]
        if peer is site or not peer.status.is_up:
            continue
        for event in peer.scheduler.objects[name].uncommitted:
            if is_write(router, name, event.invocation):
                return True
    return False


def check_unreadable_copies(router):
    protocol = router.replication
    for site in router.sites:
        if not site.status.is_up:
            continue
        for name in site.unreadable:
            behind = protocol.version_of(site.site_id, name) < protocol._latest.get(name, 0)
            assert behind or missed_write(router, site, name), (site.site_id, name)


class CheckedReplication(CheckedSimulation):
    """The stepper holding the router to the definitions above; it records
    every write the router routes as the record's reference."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.routed = {}
        router = self.router
        submit_branch = router._submit_branch

        def recording(transaction, site, request):
            if is_write(router, request.object_name, request.invocation):
                self.routed.setdefault(transaction.gtid, set()).add(
                    (request.object_name, site.site_id)
                )
            submit_branch(transaction, site, request)

        router._submit_branch = recording

    def check_state(self):
        check_write_records(self.router, self.routed)
        check_unreadable_copies(self.router)
        super().check_state()


#: Site 2 goes down across the ends of site 1's and site 0's first outages.
OVERLAPPING = ((1.2, "fail", 2), (2.4, "recover", 2))


def replicated_params(protocol, commit, policy, seed):
    overrides = dict(
        policy=policy, seed=seed, database_size=30, mpl_level=12, total_completions=40,
        site_count=3, replication="copies", replication_protocol=protocol,
        commit_protocol=commit, msg_time=0.002,
        failure_schedule=double_crashes(period=4, until=400) + OVERLAPPING,
    )
    if protocol == "quorum":
        overrides.update(quorum_read=2, quorum_write=2)
    return SimulationParameters(**overrides)


class TestInvariantsBetweenEveryTwoEvents:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize(
        "policy", [ConflictPolicy.RECOVERABILITY, ConflictPolicy.TWO_PHASE_LOCKING],
        ids=lambda policy: policy.value,
    )
    @pytest.mark.parametrize("commit", ["one-phase", "two-phase"])
    @pytest.mark.parametrize("protocol", ["quorum", "primary-copy"])
    def test_stepped_run_never_leaves_the_definition(self, protocol, commit, policy, seed):
        params = replicated_params(protocol, commit, policy, seed)
        simulation = CheckedReplication(params, workload_kind="readwrite")
        metrics = simulation.run()
        counters = metrics.counters()
        assert simulation.checks >= counters["events_processed"]
        # The crashes fired and the checks had copies and records to look at.
        assert counters["replication_catchups"] > 0
        assert counters["replication_site_failure_aborts"] > 0
        assert sum(len(writes) for writes in simulation.routed.values()) > 100
        # Stepping changes nothing: the unstepped run is the same run.
        assert counters == run_simulation(params, workload_kind="readwrite").counters()

    def test_a_dropped_record_entry_is_caught(self):
        simulation = CheckedReplication(
            replicated_params("quorum", "two-phase", ConflictPolicy.RECOVERABILITY, 1),
            workload_kind="readwrite",
        )
        router = simulation.router
        recording = router._submit_branch
        dropped = []

        def mutant(transaction, site, request):
            recording(transaction, site, request)
            if not dropped and is_write(router, request.object_name, request.invocation):
                transaction.writes[request.object_name].discard(site.site_id)
                dropped.append(transaction.gtid)

        router._submit_branch = mutant
        with pytest.raises(AssertionError):
            simulation.run()
        assert dropped

    def test_a_skipped_mark_readable_is_caught(self, monkeypatch):
        simulation = CheckedReplication(
            replicated_params("quorum", "two-phase", ConflictPolicy.RECOVERABILITY, 1),
            workload_kind="readwrite",
        )
        protocol = simulation.router.replication
        mark_readable = Site.mark_readable
        skipped = []

        def mutant(site, name):
            # The first call re-admitting a copy at its latest version (a
            # skipped catch-up leaves a copy behind, which stays legal).
            if (
                skipped
                or name not in site.unreadable
                or protocol.version_of(site.site_id, name) < protocol._latest.get(name, 0)
            ):
                mark_readable(site, name)
            else:
                skipped.append((site.site_id, name))

        monkeypatch.setattr(Site, "mark_readable", mutant)
        with pytest.raises(AssertionError):
            simulation.run()
        assert skipped
