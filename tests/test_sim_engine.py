"""Tests for the discrete-event engine, random source, and resource model."""

import pytest

from repro.core.errors import SimulationError
from repro.core.specification import Event, Invocation
from repro.sim.engine import EventEngine
from repro.sim.params import SimulationParameters
from repro.sim.random_source import RandomSource
from repro.sim.resources import FifoServer, GlobalResourceModel, ResourceDomain


class TestEventEngine:
    def test_events_fire_in_time_order(self):
        engine = EventEngine()
        fired = []
        engine.schedule(2.0, lambda: fired.append("late"))
        engine.schedule(1.0, lambda: fired.append("early"))
        engine.run()
        assert fired == ["early", "late"]
        assert engine.now == 2.0

    def test_simultaneous_events_fire_fifo(self):
        engine = EventEngine()
        fired = []
        for label in ("a", "b", "c"):
            engine.schedule(1.0, lambda label=label: fired.append(label))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_at_past_time_rejected(self):
        engine = EventEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_cancelled_events_are_skipped(self):
        engine = EventEngine()
        fired = []
        event = engine.schedule_cancellable(1.0, lambda: fired.append("cancelled"))
        engine.schedule(2.0, lambda: fired.append("kept"))
        event.cancel()
        engine.run()
        assert fired == ["kept"]
        assert engine.events_processed == 1
        assert engine.pending() == 0

    def test_cancellable_negative_delay_rejected(self):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.schedule_cancellable(-1.0, lambda: None)

    def test_cancellable_event_fires_when_not_cancelled(self):
        engine = EventEngine()
        fired = []
        engine.schedule_cancellable(1.0, lambda: fired.append("kept"))
        assert engine.pending() == 1
        engine.run()
        assert fired == ["kept"]

    def test_run_until_predicate(self):
        engine = EventEngine()
        fired = []
        for i in range(5):
            engine.schedule(float(i + 1), lambda i=i: fired.append(i))
        engine.run(until=lambda: len(fired) >= 2)
        assert fired == [0, 1]
        assert engine.pending() == 3

    def test_run_raises_if_queue_drains_before_condition(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.run(until=lambda: False)

    def test_max_events_safety_valve(self):
        engine = EventEngine()

        def reschedule():
            engine.schedule(1.0, reschedule)

        engine.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run(until=lambda: False, max_events=10)

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

    @pytest.mark.parametrize("drain", ["step", "run", "run_until_stop"])
    def test_a_tuple_subclass_is_never_a_typed_member(self, drain):
        # ``core.specification.Event`` is a tuple underneath; the engine's
        # member test is exact, so scheduling one is an error, not a dispatch
        # on its first field.
        engine = EventEngine()
        engine.register_kind(lambda member: pytest.fail("dispatched as a typed member"))
        engine.schedule(1.0, Event(1, Invocation("read"), 0, 1))
        with pytest.raises(TypeError, match="not callable"):
            getattr(engine, drain)()

    def test_registering_a_handler_again_keeps_its_kind(self):
        engine = EventEngine()
        first, second = (lambda member: None), (lambda member: None)
        kind = engine.register_kind(first)
        assert engine.register_kind(second) == kind + 1
        assert engine.register_kind(first) == kind
        assert len(engine._handlers) == 3


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
        domain.perform_step(lambda: None)
        domain.perform_step(lambda: None)
        server = domain.cpus
        assert isinstance(server, FifoServer)
        assert server.busy == 2 and server.waits == 0 and server.load == 2
        engine.step()  # the first CPU stage ends and frees its CPU
        assert server.busy == 1 and server.load == 1

    def test_waiters_are_served_fifo(self):
        engine = EventEngine()
        domain = self.cpu_pool(engine, 1)
        served = []
        for label in ("first", "second", "third"):
            domain.perform_step(lambda label=label: served.append(label))
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
        model.perform_operation((0,), 0, lambda: done.append(engine.now))
        engine.run()
        assert done == [pytest.approx(params.step_time)]
        assert model.utilisation_summary() == {"resources": "infinite"}

    def test_finite_resources_take_cpu_plus_io_time(self):
        engine = EventEngine()
        params = SimulationParameters(total_completions=1, resource_units=1)
        model = GlobalResourceModel(engine, params, RandomSource(1))
        done = []
        model.perform_operation((0,), 0, lambda: done.append(engine.now))
        engine.run()
        assert done == [pytest.approx(params.cpu_time + params.io_time)]
        summary = model.utilisation_summary()
        assert summary["cpu_served"] == 1 and summary["disk_served"] == 1

    def test_cpu_contention_serialises_steps(self):
        engine = EventEngine()
        params = SimulationParameters(total_completions=1, resource_units=1)
        model = GlobalResourceModel(engine, params, RandomSource(1))
        done = []
        model.perform_operation((0,), 0, lambda: done.append(engine.now))
        model.perform_operation((0,), 0, lambda: done.append(engine.now))
        engine.run()
        # The second step cannot start its CPU service before the first
        # releases the only CPU.
        assert done[1] >= params.cpu_time + params.io_time
        assert done[1] >= done[0]

    def test_resource_unit_counts(self):
        params = SimulationParameters(total_completions=1, resource_units=3)
        assert params.num_cpus == 3
        assert params.num_disks == 6
