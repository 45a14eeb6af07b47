"""Request pooling must be invisible — except to stale references.

The slab/freelist pass recycles :class:`RequestHandle` and
:class:`PendingRequest` objects through per-scheduler
:class:`~repro.core.pool.ObjectPool` freelists: handles are retired to the
pool when their transaction reaches a terminal state, pending wrappers when
their blocked request is granted, dropped or aborted.  Three properties keep
that honest:

* **Pinned equivalence** — a pooled run must be bit-identical to an
  unpooled run on the CRC32-derived seeded streams, for every backend and
  for centralized and multi-site configurations alike.  Pooling reuses
  boxes; it must never change a scheduling decision.
* **Staleness is loud** — a retired handle's generation counter advances
  and its status becomes ``RECYCLED``; any later read of the recycled
  reference raises :class:`~repro.core.errors.StaleHandleError` instead of
  silently serving another transaction's outcome.
* **Freelists survive reset()** — a reused simulation keeps recycling the
  same boxes across sweep points, and the reused runs stay pinned to the
  freshly built ones.
"""

import pytest
from test_log_removal_oracle import schedulers_of

from repro.core.errors import StaleHandleError
from repro.core.pool import ObjectPool
from repro.core.policy import ConflictPolicy
from repro.core.requests import RequestStatus
from repro.core.scheduler import Scheduler
from repro.sim.params import SimulationParameters
from repro.sim.simulator import Simulation, run_simulation

POLICIES = {
    "commutativity": ConflictPolicy.COMMUTATIVITY,
    "recoverability": ConflictPolicy.RECOVERABILITY,
    "two-phase-locking": ConflictPolicy.TWO_PHASE_LOCKING,
}

CASES = [
    (policy_name, sites) for policy_name in sorted(POLICIES) for sites in (1, 3)
]


def point_params(policy: ConflictPolicy, sites: int) -> SimulationParameters:
    overrides = dict(
        mpl_level=12, total_completions=120, database_size=100, seed=9,
        policy=policy,
    )
    if sites > 1:
        overrides.update(site_count=sites, replication="copies")
    return SimulationParameters(**overrides)


def signature(metrics):
    """Every deterministic observable of a run, rounding only float noise."""
    return dict(
        metrics.counters(),
        simulated_time=round(metrics.simulated_time, 12),
        response_time_total=round(metrics.response_time_total, 12),
    )


class TestPooledUnpooledEquivalence:
    @pytest.mark.parametrize("policy_name,sites", CASES)
    def test_pooled_matches_unpooled(self, policy_name, sites):
        params = point_params(POLICIES[policy_name], sites)
        pooled = run_simulation(params, workload_kind="readwrite", pool_requests=True)
        unpooled = run_simulation(params, workload_kind="readwrite", pool_requests=False)
        assert signature(pooled) == signature(unpooled)

    def test_pooled_matches_unpooled_on_adt_workload(self):
        # ADT objects exercise the blocked-request (PendingRequest) pool
        # harder: pops and deletes block behind pushes and inserts.
        params = SimulationParameters(
            mpl_level=10, total_completions=80, database_size=80, seed=5,
            policy=ConflictPolicy.RECOVERABILITY,
        )
        pooled = run_simulation(params, workload_kind="adt", pool_requests=True)
        unpooled = run_simulation(params, workload_kind="adt", pool_requests=False)
        assert signature(pooled) == signature(unpooled)

    def test_pooled_simulation_actually_recycles(self):
        params = point_params(ConflictPolicy.RECOVERABILITY, 1)
        simulation = Simulation(params, workload_kind="readwrite")
        simulation.run()
        pool = simulation.router.scheduler.handle_pool
        assert pool.released > 0
        assert pool.reused > 0
        # Boxes sitting in the freelist = releases not yet re-acquired.
        assert len(pool.free) == pool.released - pool.reused
        # Acquisitions never outnumber what was created plus what came back.
        assert pool.reused <= pool.released


class TestStaleHandleDetection:
    def _scheduler(self) -> Scheduler:
        from repro.adts import StackType

        scheduler = Scheduler(
            policy=ConflictPolicy.RECOVERABILITY, pool_requests=True
        )
        scheduler.register_object("S", StackType())
        return scheduler

    def test_retired_handle_raises_on_every_predicate(self):
        scheduler = self._scheduler()
        transaction = scheduler.begin()
        handle = scheduler.perform(transaction.tid, "S", "push", 1)
        assert handle.executed
        scheduler.commit(transaction.tid)
        assert handle.status is RequestStatus.RECYCLED
        for predicate in ("executed", "blocked", "aborted"):
            with pytest.raises(StaleHandleError):
                getattr(handle, predicate)

    def test_generation_advances_on_each_recycle(self):
        scheduler = self._scheduler()
        transaction = scheduler.begin()
        handle = scheduler.perform(transaction.tid, "S", "push", 1)
        generation = handle.generation
        scheduler.commit(transaction.tid)
        assert handle.generation == generation + 1

    def test_stale_error_names_the_last_transaction(self):
        scheduler = self._scheduler()
        transaction = scheduler.begin()
        handle = scheduler.perform(transaction.tid, "S", "push", 1)
        scheduler.commit(transaction.tid)
        with pytest.raises(StaleHandleError) as excinfo:
            handle.executed
        assert excinfo.value.transaction_id == transaction.tid
        assert excinfo.value.generation == handle.generation

    def test_reused_handle_serves_the_new_transaction(self):
        scheduler = self._scheduler()
        first = scheduler.begin()
        stale = scheduler.perform(first.tid, "S", "push", 1)
        scheduler.commit(first.tid)
        second = scheduler.begin()
        fresh = scheduler.perform(second.tid, "S", "push", 2)
        # The freelist handed the same box to the new transaction; the new
        # reference works, and it is exactly the recycled object.
        assert fresh is stale
        assert fresh.executed
        assert fresh.transaction_id == second.tid

    def test_aborted_transaction_retires_its_handles(self):
        scheduler = self._scheduler()
        transaction = scheduler.begin()
        handle = scheduler.perform(transaction.tid, "S", "push", 1)
        scheduler.abort(transaction.tid)
        assert handle.status is RequestStatus.RECYCLED
        with pytest.raises(StaleHandleError):
            handle.aborted


class TestPoolAccounting:
    def test_counters_and_len(self):
        pool: ObjectPool[object] = ObjectPool()
        assert pool.acquire() is None  # empty freelist: caller constructs
        assert pool.created == 1  # the miss is counted as a construction
        box = object()
        pool.release(box)
        assert len(pool) == 1 and pool.released == 1
        assert pool.acquire() is box
        assert pool.reused == 1 and len(pool) == 0

    def test_as_dict_surfaces_all_counters(self):
        pool: ObjectPool[object] = ObjectPool()
        pool.release(object())
        stats = pool.as_dict()
        assert stats == {"created": 0, "reused": 0, "released": 1, "free": 1}


class TestResetReuseWithPooling:
    @pytest.mark.parametrize("policy_name,sites", CASES)
    def test_reset_reuse_stays_pinned_with_pooling(self, policy_name, sites):
        # One constructed, pooled simulation swept across two parameter
        # points and back must reproduce three freshly built pooled runs bit
        # for bit — while the schedulers' freelists carry over (reset()
        # deliberately keeps them: recycled boxes have no run state).
        params = point_params(POLICIES[policy_name], sites)
        other = params.replace(mpl_level=8, total_completions=80)
        fresh_first = run_simulation(params, workload_kind="readwrite")
        fresh_other = run_simulation(other, workload_kind="readwrite")

        simulation = Simulation(params, workload_kind="readwrite")
        first = simulation.run()
        released_first = sum(
            scheduler.handle_pool.released for scheduler in schedulers_of(simulation)
        )
        simulation.reset(other)
        second = simulation.run()
        simulation.reset(params)
        third = simulation.run()
        released_third = sum(
            scheduler.handle_pool.released for scheduler in schedulers_of(simulation)
        )

        assert signature(first) == signature(fresh_first)
        assert signature(second) == signature(fresh_other)
        assert signature(third) == signature(fresh_first)
        assert released_third > released_first  # freelists kept recycling
