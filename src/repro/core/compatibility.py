"""Compatibility tables: commutativity and recoverability relations.

The object manager never reasons about states at run time.  Instead, each
data type publishes two *compatibility tables* (the paper's Tables I-VIII):

* a **commutativity** table — entry ``(requested, executed)`` says whether the
  two operations commute (Definition 2);
* a **recoverability** table — entry ``(requested, executed)`` says whether the
  *requested* operation is recoverable relative to the *executed* one
  (Definition 1): its return value is unaffected by whether the executed
  operation ran before it.

Entries can be qualified by the operations' input parameters, following the
paper's ``Yes-SP`` / ``Yes-DP`` notation (the property holds only when the two
invocations carry the Same Parameter / Different Parameters).

At run time the scheduler asks a single question: *how does the requested
invocation relate to this uncommitted executed invocation?*  The answer is a
:class:`ConflictClass`:

``COMMUTATIVE``
    no ordering constraint at all;
``RECOVERABLE``
    the request may execute now, but a commit dependency must be recorded
    (requester commits after the executor);
``CONFLICT``
    the request must wait for the executor to terminate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from .errors import SpecificationError
from .specification import Invocation, TypeSpecification

__all__ = [
    "Answer",
    "ConflictClass",
    "RelationTable",
    "CompatibilitySpec",
]


class Answer(enum.Enum):
    """A qualified yes/no entry in a compatibility table."""

    #: The property holds regardless of parameters.
    YES = "Yes"
    #: The property never holds.
    NO = "No"
    #: The property holds only when both invocations have the *same* parameter.
    YES_SP = "Yes-SP"
    #: The property holds only when the invocations have *different* parameters.
    YES_DP = "Yes-DP"

    def holds(self, same_parameter: bool) -> bool:
        """Evaluate the entry for a concrete pair of invocations."""
        if self is Answer.YES:
            return True
        if self is Answer.NO:
            return False
        if self is Answer.YES_SP:
            return same_parameter
        return not same_parameter

    @property
    def is_unconditional(self) -> bool:
        """True for plain ``Yes``/``No`` entries (no parameter qualification)."""
        return self in (Answer.YES, Answer.NO)

    def implies(self, other: "Answer") -> bool:
        """Return True if every pair admitted by ``self`` is admitted by ``other``.

        Used when validating the paper's declared tables against derived ones:
        a declared entry is *sound* if it implies the derived entry.  ``NO``
        implies everything (it admits no pair); ``YES`` is implied only by
        ``YES``.
        """
        if self is Answer.NO:
            return True
        if other is Answer.YES:
            return True
        if self is other:
            return True
        return False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ConflictClass(enum.Enum):
    """How a requested invocation relates to an uncommitted executed one."""

    COMMUTATIVE = "commutative"
    RECOVERABLE = "recoverable"
    CONFLICT = "conflict"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class RelationTable:
    """A square table mapping ``(requested op, executed op)`` to an :class:`Answer`.

    The table is not necessarily symmetric; recoverability in particular is
    directional (``insert`` is recoverable relative to ``size`` but ``size`` is
    not recoverable relative to ``insert``).  Tables compare by contents and
    are mutable, so they are unhashable.
    """

    name: str
    operations: Tuple[str, ...]
    entries: Dict[Tuple[str, str], Answer] = field(default_factory=dict)
    #: Answer used for pairs not present in ``entries``.
    default: Answer = Answer.NO

    def __post_init__(self) -> None:
        self.operations = tuple(self.operations)
        known = set(self.operations)
        for requested, executed in self.entries:
            if requested not in known or executed not in known:
                raise SpecificationError(
                    f"table {self.name!r}: entry ({requested!r}, {executed!r}) "
                    f"references an operation outside {sorted(known)}"
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        name: str,
        operations: Sequence[str],
        rows: Mapping[str, Sequence[Answer]],
        default: Answer = Answer.NO,
    ) -> "RelationTable":
        """Build a table from per-requested-operation rows.

        ``rows[requested][j]`` is the entry for ``(requested, operations[j])``,
        mirroring how the paper prints its tables (requested operation down
        the side, executed operation across the top).
        """
        entries: Dict[Tuple[str, str], Answer] = {}
        for requested, row in rows.items():
            if len(row) != len(operations):
                raise SpecificationError(
                    f"table {name!r}: row for {requested!r} has {len(row)} entries, "
                    f"expected {len(operations)}"
                )
            for executed, answer in zip(operations, row):
                entries[(requested, executed)] = answer
        return cls(name=name, operations=tuple(operations), entries=entries, default=default)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def answer(self, requested_op: str, executed_op: str) -> Answer:
        """Return the (possibly qualified) table entry for a pair of op names."""
        return self.entries.get((requested_op, executed_op), self.default)

    def holds(
        self,
        requested: Invocation,
        executed: Invocation,
        spec: Optional[TypeSpecification] = None,
    ) -> bool:
        """Evaluate the relation for two concrete invocations.

        Parameter-qualified entries need to know whether the two invocations
        carry the same parameter; the owning type's
        :meth:`~repro.core.specification.TypeSpecification.conflict_parameter`
        decides what "parameter" means (full argument tuple by default).
        """
        entry = self.answer(requested.op, executed.op)
        if entry.is_unconditional:
            return entry.holds(same_parameter=True)
        if spec is not None:
            same = spec.conflict_parameter(requested) == spec.conflict_parameter(executed)
        else:
            same = requested.args == executed.args
        return entry.holds(same_parameter=same)

    # ------------------------------------------------------------------
    # Rendering / comparison
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[Tuple[str, str], Answer]:
        """Return a complete dense mapping for every operation pair."""
        return {
            (requested, executed): self.answer(requested, executed)
            for requested in self.operations
            for executed in self.operations
        }

    def render(self, title: Optional[str] = None) -> str:
        """Render the table as aligned text, in the paper's orientation."""
        title = title or self.name
        width = max(
            [len("Requested")]
            + [len(op) for op in self.operations]
            + [len(str(a)) for a in self.as_dict().values()]
        ) + 2
        header = "Requested".ljust(width) + "".join(op.ljust(width) for op in self.operations)
        lines = [title, "-" * len(header), header]
        for requested in self.operations:
            cells = "".join(
                str(self.answer(requested, executed)).ljust(width)
                for executed in self.operations
            )
            lines.append(requested.ljust(width) + cells)
        return "\n".join(lines)

    def count(self, *answers: Answer) -> int:
        """Count dense entries whose answer is one of ``answers``."""
        wanted = set(answers)
        return sum(1 for a in self.as_dict().values() if a in wanted)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationTable):
            return NotImplemented
        return (
            set(self.operations) == set(other.operations)
            and self.as_dict() == other.as_dict()
        )

    __hash__ = None  # type: ignore[assignment]


#: One operation index per operations tuple, shared by every spec over it:
#: the abstract-data-type workload builds a thousand specs over one tuple.
_OP_INDEXES: Dict[Tuple[str, ...], Dict[str, int]] = {}


@dataclass(slots=True, weakref_slot=True)
class CompatibilitySpec:
    """The pair of tables (commutativity, recoverability) for one data type.

    The run-time classification implemented by :meth:`classify` follows the
    paper's algorithm (Figure 2): commutativity is checked first, then
    recoverability; anything else is a conflict.  Lemma 1 (commutativity
    implies recoverability) is *not* assumed of the supplied tables — a pair
    classified commutative never consults the recoverability table, so tables
    that omit the implied entries still behave correctly.
    """

    type_name: str
    commutativity: RelationTable
    recoverability: RelationTable
    #: Flat tables compiled from the two relations, per conflict policy — see
    #: ``ObjectManager._compile_policy``.  Kept here so every manager over
    #: one shared spec (the read/write workload registers thousands) compiles
    #: once; the relations must not be edited after the first compile.
    compiled_tables: Dict[Any, Any] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    #: Operation name -> its row/column in the compiled tables (declared
    #: order), shared by every spec over an equal operations tuple and by
    #: every manager over those specs; never edited.
    op_index: Dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if set(self.commutativity.operations) != set(self.recoverability.operations):
            raise SpecificationError(
                f"compatibility spec for {self.type_name!r}: the two tables "
                "cover different operation sets"
            )
        operations = self.operations
        op_index = _OP_INDEXES.get(operations)
        if op_index is None:
            op_index = _OP_INDEXES[operations] = {op: i for i, op in enumerate(operations)}
        self.op_index = op_index

    @property
    def operations(self) -> Tuple[str, ...]:
        return self.commutativity.operations

    def commute(
        self,
        requested: Invocation,
        executed: Invocation,
        spec: Optional[TypeSpecification] = None,
    ) -> bool:
        """True if the two concrete invocations commute."""
        return self.commutativity.holds(requested, executed, spec)

    def recoverable(
        self,
        requested: Invocation,
        executed: Invocation,
        spec: Optional[TypeSpecification] = None,
    ) -> bool:
        """True if ``requested`` is recoverable relative to ``executed``."""
        return self.recoverability.holds(requested, executed, spec)

    def classify(
        self,
        requested: Invocation,
        executed: Invocation,
        spec: Optional[TypeSpecification] = None,
    ) -> ConflictClass:
        """Classify a requested invocation against an executed, uncommitted one."""
        if self.commute(requested, executed, spec):
            return ConflictClass.COMMUTATIVE
        if self.recoverable(requested, executed, spec):
            return ConflictClass.RECOVERABLE
        return ConflictClass.CONFLICT

    def render(self) -> str:
        """Render both tables as text (commutativity first, like the paper)."""
        return "\n\n".join(
            [
                self.commutativity.render(f"Commutativity for {self.type_name}"),
                self.recoverability.render(f"Recoverability for {self.type_name}"),
            ]
        )
