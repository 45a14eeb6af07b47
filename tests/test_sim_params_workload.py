"""Tests for simulation parameters and the two workload generators."""

import zlib

import pytest

from repro.core.compatibility import Answer
from repro.core.errors import SimulationError
from repro.core.policy import ConflictPolicy
from repro.core.scheduler import Scheduler
from repro.sim.params import INFINITE_RESOURCES, SimulationParameters
from repro.sim.random_source import RandomSource
from repro.sim.simulator import Simulation
from repro.sim.workload import (
    AbstractDataTypeWorkload,
    ReadWriteWorkload,
    make_workload,
    random_compatibility_table,
)


class TestSimulationParameters:
    def test_nominal_values_match_table_x(self):
        params = SimulationParameters()
        assert params.database_size == 1000
        assert params.num_terminals == 200
        assert params.min_length == 4 and params.max_length == 12
        assert params.mean_transaction_length == 8.0
        assert params.step_time == 0.05
        assert params.cpu_time == 0.015 and params.io_time == 0.035
        assert params.ext_think_time == 1.0
        assert params.write_probability == 0.3
        assert params.resource_units is INFINITE_RESOURCES

    def test_replace_returns_validated_copy(self):
        params = SimulationParameters()
        other = params.replace(mpl_level=25)
        assert other.mpl_level == 25 and params.mpl_level == 50
        with pytest.raises(SimulationError):
            params.replace(mpl_level=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"database_size": 0},
            {"num_terminals": -1},
            {"min_length": 5, "max_length": 4},
            {"step_time": 0.0},
            {"resource_units": 0},
            {"write_probability": 1.5},
            {"pc": 3},
            {"pc": 10, "pr": 10, "operations_per_object": 4},
            {"total_completions": 0},
            {"warmup_completions": 10, "total_completions": 10},
            # Every comparison with NaN is false: non-finite times are
            # rejected outright, not slipped past the range checks.
            {"step_time": float("nan")},
            {"cpu_time": float("inf")},
            {"io_time": float("nan")},
            {"ext_think_time": float("nan")},
            {"msg_time": float("nan")},
            {"commit_protocol": "two-phase", "prepare_timeout": float("nan")},
            {"site_count": 2, "replication": "copies",
             "failure_schedule": ((float("nan"), "fail", 1),)},
        ],
    )
    def test_invalid_parameters_rejected(self, overrides):
        with pytest.raises(SimulationError):
            SimulationParameters(**overrides)

    def test_describe_flattens_policy_and_resources(self):
        description = SimulationParameters().describe()
        assert description["policy"] == "recoverability"
        assert description["resource_units"] == "infinite"


class TestReadWriteWorkload:
    def make(self, **overrides):
        params = SimulationParameters(
            database_size=20, total_completions=10, **overrides
        )
        return params, ReadWriteWorkload(params, RandomSource(1))

    def test_registers_one_page_per_database_object(self):
        params, workload = self.make()
        scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
        workload.register_objects(scheduler)
        assert len(scheduler.objects) == params.database_size
        assert all(m.spec.name == "page" for m in scheduler.objects.values())
        # No simulation reads a page value: none is computed.
        assert all(not m.materialize_state for m in scheduler.objects.values())

    def test_transaction_lengths_respect_bounds(self):
        params, workload = self.make()
        for _ in range(50):
            template = workload.next_transaction()
            assert params.min_length <= len(template) <= params.max_length

    def test_operations_are_reads_and_writes_only(self):
        _, workload = self.make()
        ops = {
            invocation.op
            for _ in range(20)
            for _, invocation in workload.next_transaction().steps
        }
        assert ops <= {"read", "write"}

    def test_write_probability_zero_means_all_reads(self):
        _, workload = self.make(write_probability=0.0)
        ops = {
            invocation.op
            for _ in range(20)
            for _, invocation in workload.next_transaction().steps
        }
        assert ops == {"read"}

    def test_objects_come_from_the_database(self):
        params, workload = self.make()
        names = {
            name for _ in range(20) for name, _ in workload.next_transaction().steps
        }
        valid = {f"obj{i:05d}" for i in range(1, params.database_size + 1)}
        assert names <= valid


class TestRandomCompatibilityTable:
    def test_entry_counts_follow_pc_and_pr(self):
        operations = ("op1", "op2", "op3", "op4")
        table = random_compatibility_table(operations, pc=4, pr=8, rng=RandomSource(5))
        commutative = table.commutativity.count(Answer.YES)
        recoverable_total = table.recoverability.count(Answer.YES)
        assert commutative == 4
        assert recoverable_total == 4 + 8  # commutative entries imply recoverability

    def test_commutative_entries_are_symmetric_and_off_diagonal(self):
        operations = ("op1", "op2", "op3", "op4")
        table = random_compatibility_table(operations, pc=6, pr=0, rng=RandomSource(9))
        for requested in operations:
            for executed in operations:
                answer = table.commutativity.answer(requested, executed)
                if answer is Answer.YES:
                    assert requested != executed
                    assert table.commutativity.answer(executed, requested) is Answer.YES

    def test_pr_zero_reduces_to_commutativity_only(self):
        operations = ("op1", "op2")
        table = random_compatibility_table(operations, pc=2, pr=0, rng=RandomSource(1))
        assert table.commutativity.count(Answer.YES) == table.recoverability.count(Answer.YES)

    def test_invalid_arguments_rejected(self):
        operations = ("op1", "op2")
        with pytest.raises(SimulationError):
            random_compatibility_table(operations, pc=3, pr=0, rng=RandomSource(1))
        with pytest.raises(SimulationError):
            random_compatibility_table(operations, pc=0, pr=10, rng=RandomSource(1))
        with pytest.raises(SimulationError):
            random_compatibility_table(operations, pc=4, pr=0, rng=RandomSource(1))


class TestAbstractDataTypeWorkload:
    def make(self, **overrides):
        params = SimulationParameters(
            database_size=15, total_completions=10, pc=4, pr=4, **overrides
        )
        return params, AbstractDataTypeWorkload(params, RandomSource(2))

    def test_registers_objects_with_per_object_tables(self):
        params, workload = self.make()
        scheduler = Scheduler(policy=ConflictPolicy.RECOVERABILITY)
        workload.register_objects(scheduler)
        assert len(scheduler.objects) == params.database_size
        assert len(workload.tables) == params.database_size
        # Unmaterialised objects: execution does not track state.
        assert all(not m.materialize_state for m in scheduler.objects.values())

    def test_operations_come_from_the_abstract_set(self):
        params, workload = self.make()
        ops = {
            invocation.op
            for _ in range(20)
            for _, invocation in workload.next_transaction().steps
        }
        assert ops <= set(workload.operations)
        assert len(workload.operations) == params.operations_per_object

    def test_tables_are_reproducible_for_a_seed(self):
        params, _ = self.make()
        first = AbstractDataTypeWorkload(params, RandomSource(2))
        second = AbstractDataTypeWorkload(params, RandomSource(2))
        scheduler_a = Scheduler()
        scheduler_b = Scheduler()
        first.register_objects(scheduler_a)
        second.register_objects(scheduler_b)
        name = next(iter(first.tables))
        assert first.tables[name].commutativity == second.tables[name].commutativity

    def test_make_workload_factory(self):
        params = SimulationParameters(total_completions=10)
        assert isinstance(make_workload(params, RandomSource(1), "readwrite"), ReadWriteWorkload)
        assert isinstance(make_workload(params, RandomSource(1), "adt"), AbstractDataTypeWorkload)
        with pytest.raises(SimulationError):
            make_workload(params, RandomSource(1), "graph")


#: crc32 of the first 2 000 templates at seed 11, recorded on the commit
#: before names and invocations became shared objects.
TEMPLATE_STREAM_PINS = {"readwrite": 2247846356, "adt": 2931781493}


def template_stream_crc(workload, count=2000):
    crc = 0
    for _ in range(count):
        for name, invocation in workload.next_transaction().steps:
            crc = zlib.crc32(f"{name}|{invocation.op}|{invocation.args!r};".encode(), crc)
        crc = zlib.crc32(b"/", crc)
    return crc


@pytest.mark.parametrize("kind", sorted(TEMPLATE_STREAM_PINS))
class TestTemplateStream:
    def test_stream_is_pinned_and_survives_reuse(self, kind):
        params = SimulationParameters(seed=11, total_completions=10)
        simulation = Simulation(params, workload_kind=kind)
        assert template_stream_crc(simulation.workload) == TEMPLATE_STREAM_PINS[kind]
        simulation.reset(params)
        assert template_stream_crc(simulation.workload) == TEMPLATE_STREAM_PINS[kind]
        simulation.workload.reset(RandomSource(params.seed).spawn("workload"))
        assert template_stream_crc(simulation.workload) == TEMPLATE_STREAM_PINS[kind]

    def test_steps_share_registered_names_and_invocations(self, kind):
        params = SimulationParameters(seed=3, database_size=30, total_completions=10)
        workload = make_workload(params, RandomSource(3), kind)
        scheduler = Scheduler()
        workload.register_objects(scheduler)
        registered = {name: name for name in scheduler.objects}
        by_value = {}
        for _ in range(200):
            for name, invocation in workload.next_transaction().steps:
                assert registered[name] is name
                key = (invocation.op, invocation.args)
                assert by_value.setdefault(key, invocation) is invocation
        assert len(by_value) == (2 if kind == "readwrite" else params.operations_per_object)
