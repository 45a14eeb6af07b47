"""Tests for the discrete-event engine, random source, and resource model."""

import pytest

from repro.core.errors import SimulationError
from repro.sim.engine import EventEngine
from repro.sim.params import SimulationParameters
from repro.sim.random_source import RandomSource
from repro.sim.resources import FifoServer, GlobalResourceModel, ResourceDomain


def recorder(engine, fired):
    """Register a kind whose member ``(kind, label)`` appends ``label``."""
    return engine.register_kind(lambda member: fired.append(member[1]))


def stamper(engine, times):
    """A member that appends the simulated time at which it drains."""
    return (engine.register_kind(lambda member: times.append(engine.now)),)


def caller(engine):
    """Register a kind whose member ``(kind, function)`` calls ``function``."""
    return engine.register_kind(lambda member: member[1]())


class TestEventEngine:
    def test_events_fire_in_time_order(self):
        engine, fired = EventEngine(), []
        record = recorder(engine, fired)
        engine.schedule(2.0, (record, "late"))
        engine.schedule(1.0, (record, "early"))
        engine.run()
        assert fired == ["early", "late"]
        assert engine.now == 2.0

    def test_simultaneous_events_fire_fifo(self):
        engine, fired = EventEngine(), []
        record = recorder(engine, fired)
        for label in ("a", "b", "c"):
            engine.schedule(1.0, (record, label))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, (recorder(engine, []), None))

    def test_schedule_at_past_time_rejected(self):
        engine = EventEngine()
        record = recorder(engine, [])
        engine.schedule(5.0, (record, None))
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, (record, None))

    @pytest.mark.parametrize("interrupt", ["stop", "raise"])
    def test_a_batch_interrupted_in_the_middle_resumes_in_order(self, interrupt):
        # Three members at one timestamp drain as one batch.  The first
        # stops the run or raises; the other two stay queued, in order.
        engine, fired = EventEngine(), []
        record = recorder(engine, fired)

        def first():
            fired.append("a")
            if interrupt == "stop":
                engine.request_stop()
            else:
                raise RuntimeError("first member failed")

        engine.schedule(1.0, (caller(engine), first))
        for label in ("b", "c"):
            engine.schedule(1.0, (record, label))
        if interrupt == "stop":
            engine.run()
        else:
            with pytest.raises(RuntimeError, match="first member failed"):
                engine.run()
        assert fired == ["a"]
        assert engine.pending() == 2
        assert engine.now == 1.0
        assert engine.events_processed == 1
        engine.run()
        assert fired == ["a", "b", "c"]
        assert engine.pending() == 0
        assert engine.events_processed == 3

    @staticmethod
    def batch_of(engine, fired, labels, time=1.0):
        record = recorder(engine, fired)
        for label in labels:
            engine.schedule_at(time, (record, label))

    def test_step_takes_one_member_of_a_batch_at_a_time(self):
        engine, fired = EventEngine(), []
        self.batch_of(engine, fired, "abc")
        for count in (1, 2, 3):
            assert engine.step()
            assert fired == list("abc"[:count])
            assert engine.pending() == 3 - count
            assert engine.events_processed == count
        assert not engine.step() and engine.events_processed == 3

    @pytest.mark.parametrize("interrupt", ["stop", "raise"])
    def test_run_and_step_share_the_cursor_of_a_batch(self, interrupt):
        # ``run`` and ``step`` are two entries to one drain loop: a run cut
        # off in the middle of a batch leaves its cursor for ``step``, and a
        # step leaves it for the next run.
        engine, fired = EventEngine(), []
        call = caller(engine)

        def first():
            fired.append("a")
            if interrupt == "stop":
                engine.request_stop()
            else:
                raise RuntimeError("first member failed")

        engine.schedule(1.0, (call, first))
        self.batch_of(engine, fired, "bc")
        self.batch_of(engine, fired, "z", time=2.0)
        if interrupt == "stop":
            engine.run()
        else:
            with pytest.raises(RuntimeError, match="first member failed"):
                engine.run()
        assert engine.step()
        assert (fired, engine.now, engine.pending()) == (["a", "b"], 1.0, 2)
        engine.run()
        assert fired == ["a", "b", "c", "z"] and engine.now == 2.0
        assert engine.events_processed == 4

    def test_max_events_in_the_middle_of_a_batch_keeps_the_rest_queued(self):
        engine, fired = EventEngine(), []
        self.batch_of(engine, fired, "abcd")
        with pytest.raises(SimulationError, match="safety limit of 2 events"):
            engine.run(max_events=2)
        assert (fired, engine.pending(), engine.events_processed) == (["a", "b"], 2, 2)
        engine.run()
        assert fired == ["a", "b", "c", "d"]

    def test_a_stop_on_the_last_allowed_event_is_not_an_overrun(self):
        engine, fired = EventEngine(), []
        record, call = recorder(engine, fired), caller(engine)
        engine.schedule(1.0, (record, "a"))
        engine.schedule(1.0, (call, engine.request_stop))
        engine.schedule(1.0, (record, "c"))
        engine.run(max_events=2)
        assert fired == ["a"] and engine.pending() == 1

    def test_a_stop_requested_outside_a_run_is_cleared_by_the_next_run(self):
        engine, fired = EventEngine(), []
        self.batch_of(engine, fired, "ab")
        engine.request_stop()
        engine.run()
        assert fired == ["a", "b"]

    def test_a_zero_delay_event_runs_after_the_rest_of_its_batch(self):
        # The popped batch is closed to appends: a member scheduling at the
        # current time starts a new batch behind it.
        engine, fired = EventEngine(), []
        record, call = recorder(engine, fired), caller(engine)
        engine.schedule(1.0, (call, lambda: engine.schedule(0.0, (record, "d"))))
        self.batch_of(engine, fired, "bc")
        engine.run()
        assert fired == ["b", "c", "d"] and engine.now == 1.0

    def test_a_time_revisited_after_a_later_batch_keeps_scheduling_order(self):
        engine, fired = EventEngine(), []
        self.batch_of(engine, fired, "a", time=1.0)
        self.batch_of(engine, fired, "x", time=2.0)
        self.batch_of(engine, fired, "b", time=1.0)
        engine.run()
        assert fired == ["a", "b", "x"]

    def test_only_a_new_batch_takes_a_heap_entry_and_a_sequence_number(self):
        engine = EventEngine()
        member = (recorder(engine, []), None)
        engine.schedule(1.0, member)
        engine.schedule_at(1.0, member)
        engine.schedule(1.0, member)
        assert len(engine._queue) == 1 and engine._sequence == 1
        engine.schedule(2.0, member)
        engine.schedule(1.0, member)
        assert len(engine._queue) == 3 and engine._sequence == 3
        assert engine.pending() == 5

    def test_now_is_the_batch_time_while_its_members_run(self):
        engine, seen = EventEngine(), []
        call = caller(engine)
        for time in (1.0, 1.0, 2.5):
            engine.schedule_at(time, (call, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [1.0, 1.0, 2.5]

    def test_members_of_different_kinds_share_a_batch_in_order(self):
        engine, fired = EventEngine(), []
        whole = engine.register_kind(lambda member: fired.append(member))
        record = recorder(engine, fired)
        engine.schedule(1.0, (whole, "x", 7))
        engine.schedule(1.0, (record, "other kind"))
        engine.schedule(1.0, (whole, "y"))
        engine.run()
        assert fired == [(whole, "x", 7), "other kind", (whole, "y")]
        assert engine.events_processed == 3

    def test_a_typed_member_that_raises_leaves_the_rest_of_its_batch(self):
        engine, fired = EventEngine(), []
        kind = engine.register_kind(lambda member: member[1] / 0)
        engine.schedule(1.0, (kind, 1))
        self.batch_of(engine, fired, "bc")
        with pytest.raises(ZeroDivisionError):
            engine.run()
        assert engine.pending() == 2 and engine.events_processed == 1
        engine.run()
        assert fired == ["b", "c"]

    def test_a_raise_on_the_last_member_moves_on_to_the_next_batch(self):
        engine, fired = EventEngine(), []
        self.batch_of(engine, fired, "a")
        engine.schedule(1.0, (caller(engine), lambda: 1 / 0))
        self.batch_of(engine, fired, "z", time=2.0)
        with pytest.raises(ZeroDivisionError):
            engine.run()
        assert engine.pending() == 1 and engine.now == 1.0
        engine.run()
        assert fired == ["a", "z"] and engine.now == 2.0

    def test_dispatch_runs_a_typed_member_outside_the_drain(self):
        engine, fired = EventEngine(), []
        kind = engine.register_kind(lambda member: fired.append(member[1:]))
        engine.dispatch((kind, 1, 2))
        assert fired == [(1, 2)]
        assert engine.events_processed == 0 and engine.now == 0.0

    def test_a_stop_mid_batch_keeps_typed_members_and_new_events_in_time_order(self):
        engine, fired = EventEngine(), []
        kind = recorder(engine, fired)
        engine.schedule(1.0, (caller(engine), engine.request_stop))
        for label in "bc":
            engine.schedule(1.0, (kind, label))
        engine.schedule(3.0, (kind, "later"))
        engine.run()
        assert engine.pending() == 3 and engine.now == 1.0 and fired == []
        engine.schedule(0.5, (kind, "after stop"))
        engine.run()
        assert fired == ["b", "c", "after stop", "later"] and engine.now == 3.0
        assert engine.events_processed == 5

    def test_run_returns_when_the_queue_drains_without_a_stop(self):
        engine, fired = EventEngine(), []
        self.batch_of(engine, fired, "a")
        engine.run(max_events=10)
        assert fired == ["a"] and engine.pending() == 0

    def test_max_events_safety_valve(self):
        engine = EventEngine()
        kind = engine.register_kind(lambda member: engine.schedule(1.0, member))
        engine.schedule(1.0, (kind,))
        with pytest.raises(SimulationError, match="safety limit of 10 events"):
            engine.run(max_events=10)
        assert engine.events_processed == 10

    def test_deadlock_thrash_backs_off_and_completes(self):
        # Regression: at mpl=8 over 24 objects under COMMUTATIVITY/adt this
        # exact configuration used to livelock — the 15 fixed templates
        # re-formed the same deadlock cycle on every zero-delay restart and
        # the run burned >6M events completing 21 of 40 transactions.  The
        # escalating restart backoff in Simulation.on_aborted staggers the
        # group; the whole run now takes a few thousand events.
        from repro.core.policy import ConflictPolicy
        from repro.sim.simulator import Simulation

        params = SimulationParameters(
            database_size=24,
            num_terminals=15,
            mpl_level=8,
            total_completions=40,
            policy=ConflictPolicy.COMMUTATIVITY,
            seed=24,
        )
        simulation = Simulation(params, workload_kind="adt")
        metrics = simulation.run()
        assert metrics.completions >= 40
        assert simulation.engine.events_processed < 100_000

    def test_registering_a_handler_again_keeps_its_kind(self):
        engine = EventEngine()
        first, second = (lambda member: None), (lambda member: None)
        kind = engine.register_kind(first)
        assert engine.register_kind(second) == kind + 1
        assert engine.register_kind(first) == kind
        assert len(engine.handlers) == 2


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a, b = RandomSource(42), RandomSource(42)
        assert [a.uniform_int(1, 100) for _ in range(10)] == [
            b.uniform_int(1, 100) for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        a, b = RandomSource(1), RandomSource(2)
        assert [a.uniform_int(1, 1000) for _ in range(10)] != [
            b.uniform_int(1, 1000) for _ in range(10)
        ]

    def test_exponential_mean_zero_returns_zero(self):
        assert RandomSource(1).exponential(0.0) == 0.0

    def test_exponential_is_positive(self):
        rng = RandomSource(3)
        assert all(rng.exponential(1.0) >= 0 for _ in range(100))

    def test_bernoulli_extremes(self):
        rng = RandomSource(5)
        assert not any(rng.bernoulli(0.0) for _ in range(50))
        assert all(rng.bernoulli(1.0) for _ in range(50))

    def test_choice_sample_shuffle(self):
        rng = RandomSource(7)
        items = list(range(10))
        assert rng.choice(items) in items
        sample = rng.sample(items, 3)
        assert len(sample) == 3 and len(set(sample)) == 3
        shuffled = rng.shuffle(items)
        assert sorted(shuffled) == items
        assert items == list(range(10))  # original untouched

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 100])
    def test_index_draws_exactly_like_choice(self, n):
        items = list(range(n))
        a, b = RandomSource(11), RandomSource(11)
        assert [a.index(n) for _ in range(200)] == [b.choice(items) for _ in range(200)]
        assert a.uniform_int(0, 10**6) == b.uniform_int(0, 10**6)  # streams still aligned

    def test_index_of_an_empty_range_raises(self):
        with pytest.raises(ValueError):
            RandomSource(1).index(0)

    def test_spawn_is_deterministic_and_independent(self):
        parent_a, parent_b = RandomSource(9), RandomSource(9)
        child_a, child_b = parent_a.spawn("workload"), parent_b.spawn("workload")
        assert child_a.uniform_int(1, 10**6) == child_b.uniform_int(1, 10**6)
        other = RandomSource(9).spawn("think")
        assert other.seed != child_a.seed


class TestFifoServer:
    # The record a domain's stages grant and release (no methods of its own).
    @staticmethod
    def cpu_pool(engine, num_cpus):
        return ResourceDomain(engine, RandomSource(1), num_cpus=num_cpus, num_disks=1,
                              cpu_time=0.015, io_time=0.035, step_time=0.05)

    def test_grants_free_servers_without_queueing(self):
        engine = EventEngine()
        domain = self.cpu_pool(engine, 2)
        domain.perform_step(stamper(engine, []))
        domain.perform_step(stamper(engine, []))
        server = domain.cpus
        assert isinstance(server, FifoServer)
        assert server.busy == 2 and server.waits == 0 and server.load == 2
        engine.step()  # the first CPU stage ends and frees its CPU
        assert server.busy == 1 and server.load == 1

    def test_waiters_are_served_fifo(self):
        engine = EventEngine()
        domain = self.cpu_pool(engine, 1)
        served = []
        record = recorder(engine, served)
        for label in ("first", "second", "third"):
            domain.perform_step((record, label))
        server = domain.cpus
        assert server.waits == 2 and len(server.queue) == 2
        engine.run()
        assert served == ["first", "second", "third"]
        assert server.free == 1 and server.served == 3 and server.load == 0


class TestSharedPool:
    def test_infinite_resources_take_step_time(self):
        engine = EventEngine()
        params = SimulationParameters(total_completions=1)
        model = GlobalResourceModel(engine, params, RandomSource(1))
        done = []
        model.perform_operation((0,), 0, stamper(engine, done))
        engine.run()
        assert done == [pytest.approx(params.step_time)]
        assert model.utilisation_summary() == {"resources": "infinite"}

    def test_finite_resources_take_cpu_plus_io_time(self):
        engine = EventEngine()
        params = SimulationParameters(total_completions=1, resource_units=1)
        model = GlobalResourceModel(engine, params, RandomSource(1))
        done = []
        model.perform_operation((0,), 0, stamper(engine, done))
        engine.run()
        assert done == [pytest.approx(params.cpu_time + params.io_time)]
        summary = model.utilisation_summary()
        assert summary["cpu_served"] == 1 and summary["disk_served"] == 1

    def test_cpu_contention_serialises_steps(self):
        engine = EventEngine()
        params = SimulationParameters(total_completions=1, resource_units=1)
        model = GlobalResourceModel(engine, params, RandomSource(1))
        done = []
        model.perform_operation((0,), 0, stamper(engine, done))
        model.perform_operation((0,), 0, stamper(engine, done))
        engine.run()
        # The second step cannot start its CPU service before the first
        # releases the only CPU.
        assert done[1] >= params.cpu_time + params.io_time
        assert done[1] >= done[0]

    def test_resource_unit_counts(self):
        params = SimulationParameters(total_completions=1, resource_units=3)
        assert params.num_cpus == 3
        assert params.num_disks == 6
