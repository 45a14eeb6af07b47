"""Semantics tests for the bundled atomic data types (Section 3.2 examples)."""

import pytest

from repro.adts import StackType, available_types, get_type, paper_types, register_type
from repro.core.errors import SpecificationError
from repro.core.scheduler import Scheduler
from repro.core.specification import Invocation
from repro.sim.params import SimulationParameters
from repro.sim.random_source import RandomSource
from repro.sim.workload import make_workload


class TestPage:
    def test_initial_read(self, page_type):
        assert page_type.return_value(page_type.initial_state(), Invocation("read")) == 0

    def test_write_then_read(self, page_type):
        state = page_type.next_state(0, Invocation("write", (42,)))
        assert page_type.return_value(state, Invocation("read")) == 42

    def test_write_returns_ok(self, page_type):
        assert page_type.return_value(0, Invocation("write", (42,))) == "ok"

    def test_read_is_read_only(self, page_type):
        assert page_type.operation("read").is_read_only
        assert not page_type.operation("write").is_read_only


class TestStack:
    def test_push_pop_round_trip(self, stack_type):
        state = stack_type.next_state((), Invocation("push", (4,)))
        state = stack_type.next_state(state, Invocation("push", (2,)))
        result = stack_type.apply(state, Invocation("pop"))
        assert result.value == 2
        assert result.state == (4,)

    def test_pop_on_empty_returns_null(self, stack_type):
        result = stack_type.apply((), Invocation("pop"))
        assert result.value is None
        assert result.state == ()

    def test_top_does_not_change_state(self, stack_type):
        result = stack_type.apply((1, 2), Invocation("top"))
        assert result.value == 2
        assert result.state == (1, 2)

    def test_top_on_empty_returns_null(self, stack_type):
        assert stack_type.return_value((), Invocation("top")) is None

    def test_push_has_logical_inverse(self, stack_type):
        inverse = stack_type.operation("push").inverse((), (4,), "ok")
        assert inverse == Invocation("pop")


class TestSet:
    def test_insert_is_idempotent(self, set_type):
        state = set_type.next_state(frozenset(), Invocation("insert", (3,)))
        state = set_type.next_state(state, Invocation("insert", (3,)))
        assert state == frozenset({3})

    def test_delete_present_and_absent(self, set_type):
        assert set_type.return_value(frozenset({3}), Invocation("delete", (3,))) == "Success"
        assert set_type.return_value(frozenset(), Invocation("delete", (3,))) == "Failure"

    def test_member(self, set_type):
        assert set_type.return_value(frozenset({3}), Invocation("member", (3,))) == "yes"
        assert set_type.return_value(frozenset({3}), Invocation("member", (4,))) == "no"

    def test_member_is_read_only(self, set_type):
        assert set_type.operation("member").is_read_only


class TestTable:
    def test_insert_unique_keys(self, table_type):
        result = table_type.apply({}, Invocation("insert", ("k", "v")))
        assert result.value == "Success"
        assert result.state == {"k": "v"}
        again = table_type.apply(result.state, Invocation("insert", ("k", "other")))
        assert again.value == "Failure"
        assert again.state == {"k": "v"}

    def test_delete(self, table_type):
        assert table_type.apply({"k": "v"}, Invocation("delete", ("k",))).value == "Success"
        assert table_type.apply({}, Invocation("delete", ("k",))).value == "Failure"

    def test_lookup(self, table_type):
        assert table_type.return_value({"k": "v"}, Invocation("lookup", ("k",))) == "v"
        assert table_type.return_value({}, Invocation("lookup", ("k",))) == "not_found"

    def test_size(self, table_type):
        assert table_type.return_value({}, Invocation("size")) == 0
        assert table_type.return_value({"a": 1, "b": 2}, Invocation("size")) == 2

    def test_modify(self, table_type):
        result = table_type.apply({"k": "v"}, Invocation("modify", ("k", "new")))
        assert result.value == "Success"
        assert result.state == {"k": "new"}
        assert table_type.apply({}, Invocation("modify", ("k", "new"))).value == "Failure"

    def test_modify_does_not_change_size(self, table_type):
        state = table_type.next_state({"k": "v"}, Invocation("modify", ("k", "new")))
        assert table_type.return_value(state, Invocation("size")) == 1

    def test_conflict_parameter_is_the_key(self, table_type):
        assert table_type.conflict_parameter(Invocation("insert", ("k", "x"))) == "k"
        assert table_type.conflict_parameter(Invocation("size")) is None

    def test_operations_never_mutate_the_input_state(self, table_type):
        state = {"k": "v"}
        table_type.apply(state, Invocation("insert", ("other", "w")))
        table_type.apply(state, Invocation("delete", ("k",)))
        table_type.apply(state, Invocation("modify", ("k", "new")))
        assert state == {"k": "v"}


class TestCounter:
    def test_increment_and_decrement(self, counter_type):
        state = counter_type.next_state(0, Invocation("increment", (5,)))
        state = counter_type.next_state(state, Invocation("decrement", (2,)))
        assert counter_type.return_value(state, Invocation("read")) == 3

    def test_default_amount_is_one(self, counter_type):
        assert counter_type.next_state(0, Invocation("increment")) == 1

    def test_inverses(self, counter_type):
        assert counter_type.operation("increment").inverse(0, (5,), "ok") == Invocation(
            "decrement", (5,)
        )
        assert counter_type.operation("decrement").inverse(0, (5,), "ok") == Invocation(
            "increment", (5,)
        )


class TestQueue:
    def test_fifo_order(self, queue_type):
        state = queue_type.next_state((), Invocation("enqueue", (1,)))
        state = queue_type.next_state(state, Invocation("enqueue", (2,)))
        result = queue_type.apply(state, Invocation("dequeue"))
        assert result.value == 1
        assert result.state == (2,)

    def test_front_and_length(self, queue_type):
        assert queue_type.return_value((7, 8), Invocation("front")) == 7
        assert queue_type.return_value((7, 8), Invocation("length")) == 2
        assert queue_type.return_value((), Invocation("front")) is None

    def test_dequeue_empty(self, queue_type):
        result = queue_type.apply((), Invocation("dequeue"))
        assert result.value is None and result.state == ()


class TestAtomicObject:
    def test_execute_mutates_held_state(self, stack_type):
        obj = stack_type.make_object("S")
        assert obj.execute("push", 4) == "ok"
        assert obj.execute("top") == 4
        assert obj.state == (4,)

    def test_peek_does_not_mutate(self, stack_type):
        obj = stack_type.make_object("S", state=(1,))
        assert obj.peek(Invocation("pop")).value == 1
        assert obj.state == (1,)

    def test_snapshot_restore(self, counter_type):
        obj = counter_type.make_object("C")
        obj.execute("increment", 10)
        snapshot = obj.snapshot()
        obj.execute("increment", 5)
        obj.restore(snapshot)
        assert obj.execute("read") == 10

    def test_compatibility_passthrough(self, set_type):
        obj = set_type.make_object("X")
        assert obj.compatibility().type_name == "set"


class TestRegistry:
    def test_paper_types_are_registered(self):
        assert set(paper_types()) <= set(available_types())

    def test_get_type_returns_fresh_instances(self):
        assert get_type("stack") is not get_type("stack")
        assert get_type("stack").name == "stack"

    def test_unknown_type_raises(self):
        with pytest.raises(SpecificationError):
            get_type("btree")

    def test_register_type_conflict_and_replace(self):
        register_type("stack2", StackType)
        with pytest.raises(SpecificationError):
            register_type("stack2", StackType)
        register_type("stack2", StackType, replace=True)
        assert "stack2" in available_types()

    def test_extra_types_are_available(self):
        assert {"counter", "queue"} <= set(available_types())


class TestReadOnlyOperationsAreHonest:
    """``is_read_only`` drives the router's read-one routing and the 2PL lock
    modes — so the declaration must be true."""

    @pytest.mark.parametrize("type_name", ["counter", "page", "queue", "set", "stack", "table"])
    def test_a_read_only_operation_returns_a_state_equal_to_its_input(self, type_name):
        spec = get_type(type_name)
        checked = 0
        for name, operation in spec.operations().items():
            if not operation.is_read_only:
                continue
            for state in spec.sample_states():
                for invocation in spec.sample_invocations(name):
                    assert spec.states_equal(spec.apply(state, invocation).state, state)
                    checked += 1
        assert checked, "every bundled type declares a read-only operation"

    def test_the_adt_workload_declares_none_and_moves_no_state_anyway(self):
        params = SimulationParameters(database_size=2)
        scheduler = Scheduler()
        make_workload(params, RandomSource(1), "adt").register_objects(scheduler)
        (spec,) = {id(manager.spec): manager.spec for manager in scheduler.objects.values()}.values()
        operations = spec.operations().values()
        assert len(operations) == params.operations_per_object
        for operation in operations:
            state = object()
            assert not operation.is_read_only and operation.function(state, ()).state is state
