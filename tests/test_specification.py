"""Unit tests for the operation/type specification framework."""

import pickle

import pytest

from repro.adts import PageType
from repro.core.errors import SpecificationError, UnknownOperationError
from repro.core.specification import (
    Event,
    FunctionalTypeSpecification,
    Invocation,
    OperationResult,
    OperationSpec,
    apply_sequence,
)


def _add(state, args):
    return OperationResult(state=state + args[0], value="ok")


def _get(state, args):
    return OperationResult(state=state, value=state)


def make_adder_spec():
    return FunctionalTypeSpecification(
        name="adder",
        initial_state=0,
        operations={
            "add": OperationSpec(name="add", function=_add),
            "get": OperationSpec(name="get", function=_get, is_read_only=True),
        },
    )


class TestOperationSpec:
    def test_apply_returns_operation_result(self):
        spec = OperationSpec(name="add", function=_add)
        result = spec.apply(10, (5,))
        assert result.state == 15
        assert result.value == "ok"

    def test_apply_rejects_non_operation_result(self):
        bad = OperationSpec(name="bad", function=lambda state, args: (state, "oops"))
        with pytest.raises(SpecificationError):
            bad.apply(0, ())

    def test_read_only_flag_defaults_false(self):
        assert OperationSpec(name="add", function=_add).is_read_only is False

    def test_inverse_defaults_none(self):
        assert OperationSpec(name="add", function=_add).inverse is None


class TestInvocation:
    def test_defaults_to_empty_args(self):
        assert Invocation("read").args == ()

    def test_str_renders_like_a_call(self):
        assert str(Invocation("push", (4,))) == "push(4)"

    def test_equality_and_hash(self):
        assert Invocation("push", (4,)) == Invocation("push", (4,))
        assert Invocation("push", (4,)) != Invocation("push", (5,))
        assert len({Invocation("push", (4,)), Invocation("push", (4,))}) == 1


class TestEvent:
    def test_str_uses_paper_notation(self):
        event = Event("X", Invocation("insert", (3,)), "ok", 1)
        assert str(event) == "X: (insert(3), 'ok', T1)"

    def test_events_are_hashable_values(self):
        event = Event("X", Invocation("insert", (3,)), "ok", 1, sequence=7)
        assert event.sequence == 7
        assert hash(event) == hash(Event("X", Invocation("insert", (3,)), "ok", 1, sequence=7))


class TestRecordValueSemantics:
    """``Event`` and ``OperationResult`` are tuples underneath; everything a
    caller could observe of the frozen dataclasses they replaced still holds."""

    EVENT = Event("X", Invocation("insert", (3,)), "ok", 1, 7)
    RESULT = OperationResult((4,), "ok")

    def test_keyword_positional_and_default_construction_agree(self):
        assert self.EVENT == Event(
            object_name="X", invocation=Invocation("insert", (3,)), value="ok",
            transaction_id=1, sequence=7,
        )
        assert Event("X", Invocation("read"), 0, 1).sequence == 0
        assert Event("X", Invocation("read"), 0, transaction_id=1) == Event(
            "X", Invocation("read"), 0, 1, 0
        )
        assert self.RESULT == OperationResult(state=(4,), value="ok")
        with pytest.raises(TypeError):
            Event("X", Invocation("read"), 0)
        with pytest.raises(TypeError):
            OperationResult((4,))

    def test_equality_and_hash_are_by_value(self):
        twin = Event("X", Invocation("insert", (3,)), "ok", 1, 7)
        assert twin == self.EVENT and twin is not self.EVENT
        assert hash(twin) == hash(self.EVENT)
        assert self.EVENT != Event("X", Invocation("insert", (3,)), "ok", 1, 8)
        assert self.RESULT != OperationResult((4,), "no")
        assert len({self.RESULT, OperationResult((4,), "ok")}) == 1

    @pytest.mark.parametrize("record,field", [(EVENT, "value"), (RESULT, "state")])
    def test_records_are_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_repr_and_str_are_unchanged(self):
        assert repr(self.EVENT) == (
            "Event(object_name='X', invocation=Invocation(op='insert', args=(3,)), "
            "value='ok', transaction_id=1, sequence=7)"
        )
        assert str(self.EVENT) == "X: (insert(3), 'ok', T1)"
        assert repr(self.RESULT) == "OperationResult(state=(4,), value='ok')"

    @pytest.mark.parametrize("record", [EVENT, RESULT])
    def test_pickle_round_trip(self, record):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and copy.__class__ is record.__class__

    def test_a_bare_tuple_is_not_an_operation_result(self):
        """``OperationSpec.apply`` does not let a function get away with
        returning ``(state, value)``; through the scheduler, see
        ``test_object_manager.TestExecutionErrors``."""
        assert not isinstance((4, "ok"), OperationResult)
        spec = FunctionalTypeSpecification(
            name="sloppy page",
            initial_state=0,
            operations={"read": OperationSpec("read", lambda state, args: (state, state))},
            compatibility=PageType().compatibility(),
        )
        with pytest.raises(SpecificationError):
            spec.apply(0, Invocation("read"))


class TestTypeSpecification:
    def test_operation_lookup(self):
        spec = make_adder_spec()
        assert spec.operation("add").name == "add"

    def test_unknown_operation_raises(self):
        spec = make_adder_spec()
        with pytest.raises(UnknownOperationError):
            spec.operation("multiply")

    def test_operation_names_order_is_stable(self):
        spec = make_adder_spec()
        assert spec.operation_names() == ("add", "get")

    def test_apply_and_components(self):
        spec = make_adder_spec()
        invocation = Invocation("add", (3,))
        assert spec.next_state(0, invocation) == 3
        assert spec.return_value(0, invocation) == "ok"
        assert spec.apply(0, Invocation("get")).value == 0

    def test_default_samples_use_initial_state(self):
        spec = make_adder_spec()
        assert spec.sample_states() == [0]
        assert spec.sample_invocations("get") == [Invocation("get")]

    def test_default_conflict_parameter_is_args(self):
        spec = make_adder_spec()
        assert spec.conflict_parameter(Invocation("add", (3,))) == (3,)

    def test_compatibility_raises_without_declaration(self):
        spec = make_adder_spec()
        with pytest.raises(SpecificationError):
            spec.compatibility()

    def test_states_equal_defaults_to_equality(self):
        spec = make_adder_spec()
        assert spec.states_equal(3, 3)
        assert not spec.states_equal(3, 4)


class TestFunctionalTypeSpecification:
    def test_custom_samples_are_returned(self):
        spec = FunctionalTypeSpecification(
            name="adder",
            initial_state=0,
            operations={"add": OperationSpec(name="add", function=_add)},
            sample_states=[0, 2],
            sample_invocations={"add": [Invocation("add", (1,))]},
        )
        assert spec.sample_states() == [0, 2]
        assert spec.sample_invocations("add") == [Invocation("add", (1,))]

    def test_initial_state(self):
        spec = make_adder_spec()
        assert spec.initial_state() == 0


class TestApplySequence:
    def test_empty_sequence_returns_input_state(self):
        spec = make_adder_spec()
        result = apply_sequence(spec, 5, [])
        assert result.state == 5
        assert result.value is None

    def test_sequence_threads_state_and_returns_last_value(self):
        spec = make_adder_spec()
        result = apply_sequence(
            spec, 0, [Invocation("add", (2,)), Invocation("add", (3,)), Invocation("get")]
        )
        assert result.state == 5
        assert result.value == 5
