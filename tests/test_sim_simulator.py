"""Tests for the closed-queuing simulator and its metrics."""

import pytest

from repro.core.errors import SimulationError
from repro.core.policy import ConflictPolicy
from repro.sim.metrics import MetricsCollector, RunMetrics
from repro.sim.params import SimulationParameters
from repro.sim.simulator import Simulation, run_simulation


def metrics_fixture(**overrides):
    defaults = dict(
        simulated_time=10.0,
        completions=20,
        commits=15,
        pseudo_commits=5,
        response_time_total=30.0,
        blocks=10,
        restarts=4,
        cycle_checks=12,
        aborts=4,
        abort_length_total=8,
        commit_dependency_edges=6,
        events_processed=1000,
    )
    defaults.update(overrides)
    return RunMetrics(**defaults)


class TestRunMetrics:
    def test_derived_ratios(self):
        metrics = metrics_fixture()
        assert metrics.throughput == pytest.approx(2.0)
        assert metrics.response_time == pytest.approx(1.5)
        assert metrics.blocking_ratio == pytest.approx(0.5)
        assert metrics.restart_ratio == pytest.approx(0.2)
        assert metrics.cycle_check_ratio == pytest.approx(0.6)
        assert metrics.abort_length == pytest.approx(2.0)

    def test_zero_denominators_are_safe(self):
        metrics = metrics_fixture(
            simulated_time=0.0, completions=0, commits=0, pseudo_commits=0, aborts=0
        )
        assert metrics.throughput == 0.0
        assert metrics.response_time == 0.0
        assert metrics.blocking_ratio == 0.0
        assert metrics.abort_length == 0.0

    def test_as_dict_contains_every_reported_metric(self):
        data = metrics_fixture().as_dict()
        for key in (
            "throughput",
            "response_time",
            "blocking_ratio",
            "restart_ratio",
            "cycle_check_ratio",
            "abort_length",
        ):
            assert key in data


class TestMetricsCollector:
    def test_window_subtracts_scheduler_snapshot(self):
        from repro.core.scheduler import SchedulerStatistics

        stats = SchedulerStatistics(blocks=5, cycle_checks=7, aborts=2, abort_length_total=3)
        collector = MetricsCollector()
        collector.begin_measurement(100.0, stats)
        stats.blocks += 3
        stats.cycle_checks += 1
        collector.record_completion(response_time=2.0, pseudo=False)
        collector.record_completion(response_time=4.0, pseudo=True)
        collector.record_restart()
        frozen = collector.freeze(110.0, stats, events_processed=50)
        assert frozen.simulated_time == pytest.approx(10.0)
        assert frozen.completions == 2
        assert frozen.commits == 1 and frozen.pseudo_commits == 1
        assert frozen.blocks == 3
        assert frozen.cycle_checks == 1
        assert frozen.restarts == 1
        assert frozen.response_time == pytest.approx(3.0)


class TestSimulationRuns:
    def test_run_reaches_requested_completions(self, tiny_params):
        metrics = run_simulation(tiny_params, "readwrite")
        assert metrics.completions >= tiny_params.total_completions
        assert metrics.throughput > 0
        assert metrics.response_time > 0

    def test_a_second_run_raises(self, tiny_params):
        simulation = Simulation(tiny_params, "readwrite")
        simulation.run()
        with pytest.raises(SimulationError, match="build a new Simulation"):
            simulation.run()

    def test_a_run_whose_queue_drains_before_the_target_raises(self, tiny_params):
        # The engine's run returns quietly on an empty queue; the simulation
        # decides that stopping short of ``total_completions`` is an error.
        simulation = Simulation(tiny_params, "readwrite")
        simulation.terminals = []
        with pytest.raises(SimulationError, match="drained before the stop condition"):
            simulation.run()
        assert simulation.completions == 0 and simulation.engine.pending() == 0

    def test_same_seed_is_deterministic(self, tiny_params):
        first = run_simulation(tiny_params, "readwrite")
        second = run_simulation(tiny_params, "readwrite")
        assert first.throughput == pytest.approx(second.throughput)
        assert first.blocks == second.blocks
        assert first.restarts == second.restarts

    def test_different_seeds_differ(self, small_sim_params):
        first = run_simulation(small_sim_params(seed=1), "readwrite")
        second = run_simulation(small_sim_params(seed=2), "readwrite")
        assert first.throughput != pytest.approx(second.throughput)

    def test_adt_workload_runs(self, small_sim_params):
        params = small_sim_params(pc=4, pr=4)
        metrics = run_simulation(params, "adt")
        assert metrics.completions >= params.total_completions

    def test_finite_resources_run(self, small_sim_params):
        params = small_sim_params(resource_units=1)
        metrics = run_simulation(params, "readwrite")
        assert metrics.completions >= params.total_completions

    def test_commutativity_policy_has_no_pseudo_commits(self, small_sim_params):
        params = small_sim_params(policy=ConflictPolicy.COMMUTATIVITY, database_size=20)
        metrics = run_simulation(params, "readwrite")
        assert metrics.pseudo_commits == 0
        assert metrics.commits == metrics.completions

    def test_recoverability_beats_commutativity_under_contention(self):
        """The headline claim, checked at unit-test scale: with a small hot
        database the recoverability policy completes work faster."""
        base = dict(database_size=40, num_terminals=60, mpl_level=30, total_completions=150, seed=5)
        commutativity = run_simulation(
            SimulationParameters(policy=ConflictPolicy.COMMUTATIVITY, **base), "readwrite"
        )
        recoverability = run_simulation(
            SimulationParameters(policy=ConflictPolicy.RECOVERABILITY, **base), "readwrite"
        )
        assert recoverability.throughput > commutativity.throughput
        assert recoverability.blocking_ratio < commutativity.blocking_ratio

    def test_mpl_limit_is_respected_throughout(self, tiny_params):
        simulation = Simulation(tiny_params, "readwrite")
        observed = []
        original_start = simulation._start

        def tracking_start(transaction):
            original_start(transaction)
            observed.append(simulation.active_count)

        simulation._start = tracking_start
        simulation.run()
        assert observed and max(observed) <= tiny_params.mpl_level

    def test_warmup_excludes_early_completions(self, small_sim_params):
        params = small_sim_params(total_completions=80, warmup_completions=40)
        metrics = run_simulation(params, "readwrite")
        assert metrics.completions <= 80 - 40 + 1

    def test_pseudo_commit_slot_release_flag(self, small_sim_params):
        held = run_simulation(small_sim_params(pseudo_commit_holds_slot=True), "readwrite")
        released = run_simulation(small_sim_params(pseudo_commit_holds_slot=False), "readwrite")
        # Both configurations must finish; they are allowed to differ.
        assert held.completions >= 60 and released.completions >= 60

    def test_conflicts_are_counted_under_contention(self, small_sim_params):
        params = small_sim_params(
            database_size=30, num_terminals=40, mpl_level=15, total_completions=120, seed=3
        )
        metrics = run_simulation(params, "readwrite")
        # A thirty-object database at mpl 15 must produce conflicts.
        assert metrics.blocks > 0
        assert metrics.cycle_checks > 0
        assert metrics.blocking_ratio > 0

    def test_unfair_scheduling_runs_and_differs(self, small_sim_params):
        fair = run_simulation(small_sim_params(fair_scheduling=True, database_size=20), "readwrite")
        unfair = run_simulation(
            small_sim_params(fair_scheduling=False, database_size=20), "readwrite"
        )
        assert fair.completions >= 60 and unfair.completions >= 60
