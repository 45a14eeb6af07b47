"""Unit tests for compatibility tables (Answer, RelationTable, CompatibilitySpec)."""

import pytest

from repro.core.compatibility import Answer, CompatibilitySpec, ConflictClass, RelationTable
from repro.core.errors import SpecificationError
from repro.core.specification import Invocation
from repro.adts import TableType


class TestAnswer:
    def test_yes_holds_regardless_of_parameters(self):
        assert Answer.YES.holds(same_parameter=True)
        assert Answer.YES.holds(same_parameter=False)

    def test_no_never_holds(self):
        assert not Answer.NO.holds(same_parameter=True)
        assert not Answer.NO.holds(same_parameter=False)

    def test_yes_sp_requires_same_parameter(self):
        assert Answer.YES_SP.holds(same_parameter=True)
        assert not Answer.YES_SP.holds(same_parameter=False)

    def test_yes_dp_requires_different_parameter(self):
        assert not Answer.YES_DP.holds(same_parameter=True)
        assert Answer.YES_DP.holds(same_parameter=False)

    def test_is_unconditional(self):
        assert Answer.YES.is_unconditional
        assert Answer.NO.is_unconditional
        assert not Answer.YES_SP.is_unconditional
        assert not Answer.YES_DP.is_unconditional

    def test_no_implies_everything(self):
        for other in Answer:
            assert Answer.NO.implies(other)

    def test_everything_implies_yes(self):
        for answer in Answer:
            assert answer.implies(Answer.YES)

    def test_yes_does_not_imply_qualified_entries(self):
        assert not Answer.YES.implies(Answer.YES_SP)
        assert not Answer.YES.implies(Answer.NO)

    def test_qualified_entries_do_not_imply_each_other(self):
        assert not Answer.YES_SP.implies(Answer.YES_DP)
        assert not Answer.YES_DP.implies(Answer.YES_SP)

    def test_str_uses_paper_labels(self):
        assert str(Answer.YES_SP) == "Yes-SP"
        assert str(Answer.NO) == "No"


def make_table(default=Answer.NO):
    return RelationTable.from_rows(
        name="demo",
        operations=("a", "b"),
        rows={
            "a": [Answer.YES, Answer.YES_DP],
            "b": [Answer.NO, Answer.YES_SP],
        },
        default=default,
    )


class TestRelationTable:
    def test_from_rows_round_trips_entries(self):
        table = make_table()
        assert table.answer("a", "a") is Answer.YES
        assert table.answer("a", "b") is Answer.YES_DP
        assert table.answer("b", "a") is Answer.NO
        assert table.answer("b", "b") is Answer.YES_SP

    def test_missing_entry_uses_default(self):
        table = RelationTable(name="sparse", operations=("a", "b"), entries={})
        assert table.answer("a", "b") is Answer.NO

    def test_from_rows_rejects_wrong_row_length(self):
        with pytest.raises(SpecificationError):
            RelationTable.from_rows("bad", ("a", "b"), {"a": [Answer.YES]})

    def test_entries_must_reference_known_operations(self):
        with pytest.raises(SpecificationError):
            RelationTable(
                name="bad",
                operations=("a",),
                entries={("a", "zzz"): Answer.YES},
            )

    def test_holds_unconditional(self):
        table = make_table()
        assert table.holds(Invocation("a", (1,)), Invocation("a", (2,)))
        assert not table.holds(Invocation("b", (1,)), Invocation("a", (1,)))

    def test_holds_parameter_dependent_without_spec_uses_args(self):
        table = make_table()
        # (a, b) is Yes-DP: holds only for different argument tuples.
        assert table.holds(Invocation("a", (1,)), Invocation("b", (2,)))
        assert not table.holds(Invocation("a", (1,)), Invocation("b", (1,)))

    def test_holds_uses_spec_conflict_parameter(self):
        table_type = TableType()
        tables = table_type.compatibility()
        same_key = tables.commutativity.holds(
            Invocation("insert", ("k", "x")), Invocation("modify", ("k", "y")), table_type
        )
        different_key = tables.commutativity.holds(
            Invocation("insert", ("k1", "x")), Invocation("modify", ("k2", "y")), table_type
        )
        assert not same_key
        assert different_key

    def test_as_dict_is_dense(self):
        table = make_table()
        assert len(table.as_dict()) == 4

    def test_count(self):
        table = make_table()
        assert table.count(Answer.YES) == 1
        assert table.count(Answer.YES, Answer.YES_SP, Answer.YES_DP) == 3

    def test_render_contains_operations_and_entries(self):
        text = make_table().render("demo table")
        assert "demo table" in text
        assert "Requested" in text
        assert "Yes-DP" in text

    def test_equality_is_structural(self):
        assert make_table() == make_table()
        other = RelationTable.from_rows(
            "other",
            ("a", "b"),
            {"a": [Answer.NO, Answer.NO], "b": [Answer.NO, Answer.NO]},
        )
        assert make_table() != other

    def test_tables_are_unhashable(self):
        # Equal tables must not hash apart: a table compares by contents.
        with pytest.raises(TypeError):
            hash(make_table())


class TestCompatibilitySpec:
    def test_operations_property(self, set_type):
        spec = set_type.compatibility()
        assert set(spec.operations) == {"insert", "delete", "member"}

    def test_mismatched_tables_rejected(self):
        commutativity = RelationTable(name="c", operations=("a",), entries={})
        recoverability = RelationTable(name="r", operations=("b",), entries={})
        with pytest.raises(SpecificationError):
            CompatibilitySpec("broken", commutativity, recoverability)

    def test_classify_commutative(self, set_type):
        spec = set_type.compatibility()
        result = spec.classify(Invocation("insert", (1,)), Invocation("insert", (2,)), set_type)
        assert result is ConflictClass.COMMUTATIVE

    def test_classify_recoverable(self, set_type):
        spec = set_type.compatibility()
        # insert after a member of the same element: not commutative, recoverable.
        result = spec.classify(Invocation("insert", (1,)), Invocation("member", (1,)), set_type)
        assert result is ConflictClass.RECOVERABLE

    def test_classify_conflict(self, set_type):
        spec = set_type.compatibility()
        # member after a delete of the same element is neither.
        result = spec.classify(Invocation("member", (1,)), Invocation("delete", (1,)), set_type)
        assert result is ConflictClass.CONFLICT

    def test_commute_and_recoverable_helpers(self, stack_type):
        spec = stack_type.compatibility()
        push1, push2 = Invocation("push", (1,)), Invocation("push", (2,))
        assert not spec.commute(push1, push2, stack_type)
        assert spec.recoverable(push1, push2, stack_type)

    def test_render_mentions_both_tables(self, stack_type):
        text = stack_type.compatibility().render()
        assert "Commutativity for stack" in text
        assert "Recoverability for stack" in text
