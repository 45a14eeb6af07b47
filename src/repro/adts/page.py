"""The Page (read/write) data type — Section 3.2.1, Tables I and II.

A page holds a single value; the only operations are ``read()`` and
``write(value)``.  Under commutativity the traditional conflict rule applies
(two operations conflict if either is a write).  Under recoverability only
``(read, write)`` remains a conflict: a write's return value ("ok") does not
depend on any earlier operation, so both ``(write, read)`` and
``(write, write)`` are recoverable — the later writer merely acquires a
commit dependency on the earlier transaction.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from ..core.compatibility import Answer, CompatibilitySpec, RelationTable
from ..core.specification import Invocation, OperationResult, OperationSpec, _tuple_new
from .base import AtomicType

__all__ = ["PageType", "PAGE_OPERATIONS"]

PAGE_OPERATIONS: Tuple[str, ...] = ("read", "write")

#: Value stored by a freshly created page.
_INITIAL_VALUE = 0


def _read(state: Any, args: Tuple[Any, ...]) -> OperationResult:
    return _tuple_new(OperationResult, (state, state))


def _write(state: Any, args: Tuple[Any, ...]) -> OperationResult:
    (value,) = args
    return _tuple_new(OperationResult, (value, "ok"))


class PageType(AtomicType):
    """Read/write page object (the traditional database data model)."""

    name = "page"

    def __init__(self) -> None:
        super().__init__(
            {
                "read": OperationSpec(name="read", function=_read, is_read_only=True),
                "write": OperationSpec(name="write", function=_write),
            }
        )

    # ------------------------------------------------------------------
    # Specification interface
    # ------------------------------------------------------------------
    def initial_state(self) -> Any:
        return _INITIAL_VALUE

    def sample_states(self) -> Sequence[Any]:
        return [0, 1, 7]

    def sample_invocations(self, op_name: str) -> Sequence[Invocation]:
        if op_name == "read":
            return [Invocation("read")]
        return [Invocation("write", (1,)), Invocation("write", (7,))]

    # ------------------------------------------------------------------
    # Declared tables (paper Tables I and II)
    # ------------------------------------------------------------------
    def compatibility(self) -> CompatibilitySpec:
        commutativity = RelationTable.from_rows(
            name="Table I (page commutativity)",
            operations=PAGE_OPERATIONS,
            rows={
                "read": [Answer.YES, Answer.NO],
                "write": [Answer.NO, Answer.NO],
            },
        )
        recoverability = RelationTable.from_rows(
            name="Table II (page recoverability)",
            operations=PAGE_OPERATIONS,
            rows={
                "read": [Answer.YES, Answer.NO],
                "write": [Answer.YES, Answer.YES],
            },
        )
        return CompatibilitySpec(
            type_name=self.name,
            commutativity=commutativity,
            recoverability=recoverability,
        )
