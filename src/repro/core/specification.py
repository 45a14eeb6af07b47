"""Formal specification framework for atomic data types.

The paper models each object as an instance of an abstract data type whose
operations are specified as a total function ``S -> S x V``: executing an
operation in state ``s`` yields a new state ``state(o, s)`` and a return value
``return(o, s)``.  Both commutativity (Definition 2) and recoverability
(Definition 1) are expressed purely in terms of these two components, so the
whole concurrency-control machinery in this package is built on top of the
classes defined here.

A :class:`TypeSpecification` is the executable form of such a specification:
it owns a set of named :class:`OperationSpec` objects, each a *pure* function
from ``(state, args)`` to an :class:`OperationResult`.  States are ordinary
immutable (or treated-as-immutable) Python values; the framework never mutates
a state in place, which makes it trivial to replay, undo, and enumerate
histories — exactly what the recoverability definitions require.

Two further pieces of vocabulary come from the paper:

* an :class:`Invocation` is an operation name plus its arguments
  (``push(4)``, ``member(3)``);
* an :class:`Event` is a *paired invocation and response* in Weihl's notation:
  object, invocation, returned value, and the invoking transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .errors import SpecificationError, UnknownOperationError

__all__ = [
    "OperationResult",
    "OperationSpec",
    "Invocation",
    "Event",
    "TypeSpecification",
    "FunctionalTypeSpecification",
    "apply_sequence",
]


# The two per-operation records are tuples underneath: a frozen dataclass
# assigns each field through ``object.__setattr__`` (1.1 us for an ``Event``),
# a tuple is filled in one allocation.  The ``NamedTuple`` field holder gives
# accessors, ``repr``, value equality/hash, immutability and pickling; the
# constructor is written out because the one ``NamedTuple`` compiles from a
# string belongs to no file, so a profiler cannot attribute it.  The hottest
# builders (the object manager's execution kernel, the page operations) call
# ``_tuple_new`` themselves, saving the constructor's frame.
_tuple_new = tuple.__new__


class _OperationResultFields(NamedTuple):
    state: Any
    value: Any


class OperationResult(_OperationResultFields):
    """The outcome of applying an operation in a given state.

    Attributes
    ----------
    state:
        The state produced by the operation (``state(o, s)`` in the paper).
    value:
        The value returned by the operation (``return(o, s)``).  The paper
        assumes every operation returns at least a status code; specifications
        in this package follow that convention (pure mutators return ``"ok"``).
    """

    __slots__ = ()

    def __new__(cls, state: Any, value: Any) -> "OperationResult":
        return _tuple_new(cls, (state, value))


@dataclass(frozen=True, slots=True)
class OperationSpec:
    """A single named operation of an abstract data type.

    Attributes
    ----------
    name:
        The operation name (``"push"``, ``"insert"`` ...).
    function:
        A pure function ``(state, args) -> OperationResult``.  It must not
        mutate ``state``.
    is_read_only:
        ``True`` when the operation never changes the object state.  Read-only
        operations need no undo information: recovery, the 2PL lock modes and
        the multi-site router's read-one routing trust this flag.
    inverse:
        Optional logical-undo constructor.  Given ``(state_before, args,
        value)`` of a completed execution it returns an :class:`Invocation`
        that, applied to a state containing the operation's effect, removes
        that effect (e.g. the inverse of ``push(x)`` is ``pop()``).  ``None``
        means the type offers no logical inverse for this operation and
        recovery must fall back to replay-based undo.
    """

    name: str
    function: Callable[[Any, Tuple[Any, ...]], OperationResult]
    is_read_only: bool = False
    inverse: Optional[Callable[[Any, Tuple[Any, ...], Any], "Invocation"]] = None

    def apply(self, state: Any, args: Tuple[Any, ...] = ()) -> OperationResult:
        """Apply the operation to ``state`` with ``args`` and return the result."""
        result = self.function(state, args)
        if not isinstance(result, OperationResult):
            raise SpecificationError(
                f"operation {self.name!r} returned {type(result).__name__}, "
                "expected OperationResult"
            )
        return result


@dataclass(frozen=True, slots=True)
class Invocation:
    """An operation invocation: a name plus an argument tuple."""

    op: str
    args: Tuple[Any, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.op}({rendered})"


class _EventFields(NamedTuple):
    object_name: str
    invocation: Invocation
    value: Any
    transaction_id: int
    sequence: int


class Event(_EventFields):
    """A paired invocation and response, attributed to a transaction.

    Sequence (1) of the paper, ``X: (insert(3), ok, T1)``, is represented as
    ``Event(object_name="X", invocation=Invocation("insert", (3,)), value="ok",
    transaction_id=1)``.
    """

    __slots__ = ()

    def __new__(
        cls,
        object_name: str,
        invocation: Invocation,
        value: Any,
        transaction_id: int,
        sequence: int = 0,
    ) -> "Event":
        return _tuple_new(cls, (object_name, invocation, value, transaction_id, sequence))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.object_name}: ({self.invocation}, {self.value!r}, "
            f"T{self.transaction_id})"
        )


class TypeSpecification:
    """Executable specification of an atomic data type.

    Subclasses (see :mod:`repro.adts`) provide the concrete operations, the
    initial state, sample states and sample arguments (used by
    :mod:`repro.core.derivation` to derive compatibility tables by
    enumeration), and the declared compatibility tables from the paper.
    """

    #: Human-readable type name; subclasses override.
    name: str = "abstract"

    def __init__(self, operations: Optional[Mapping[str, OperationSpec]] = None):
        self._operations: Dict[str, OperationSpec] = dict(operations or {})

    # ------------------------------------------------------------------
    # Core specification interface
    # ------------------------------------------------------------------
    def initial_state(self) -> Any:
        """Return the state of a freshly created object of this type."""
        raise NotImplementedError

    def operations(self) -> Mapping[str, OperationSpec]:
        """Return the mapping from operation name to :class:`OperationSpec`."""
        return dict(self._operations)

    def operation(self, op_name: str) -> OperationSpec:
        """Return the specification of ``op_name``.

        Raises :class:`~repro.core.errors.UnknownOperationError` if the type
        does not define the operation.
        """
        try:
            return self._operations[op_name]
        except KeyError:
            raise UnknownOperationError(self.name, op_name) from None

    def operation_names(self) -> Tuple[str, ...]:
        """Return operation names in a stable, deterministic order."""
        return tuple(self._operations)

    def apply(self, state: Any, invocation: Invocation) -> OperationResult:
        """Apply ``invocation`` to ``state`` (the ``S -> S x V`` function)."""
        return self.operation(invocation.op).apply(state, invocation.args)

    def return_value(self, state: Any, invocation: Invocation) -> Any:
        """``return(o, s)`` of the paper."""
        return self.apply(state, invocation).value

    def next_state(self, state: Any, invocation: Invocation) -> Any:
        """``state(o, s)`` of the paper."""
        return self.apply(state, invocation).state

    # ------------------------------------------------------------------
    # Hooks used to *derive* compatibility tables by enumeration
    # ------------------------------------------------------------------
    def sample_states(self) -> Sequence[Any]:
        """Return a representative collection of states for table derivation.

        The derived tables are exact only with respect to this sample; types
        should include empty, small, and duplicate-bearing states so that the
        counterexamples the paper relies on (e.g. a ``delete`` of a present
        versus absent element) are all reachable.
        """
        return [self.initial_state()]

    def sample_invocations(self, op_name: str) -> Sequence[Invocation]:
        """Return representative invocations of ``op_name`` for derivation."""
        return [Invocation(op_name)]

    def conflict_parameter(self, invocation: Invocation) -> Hashable:
        """Return the value used to decide *same parameter* vs *different*.

        The paper's Yes-SP / Yes-DP table entries qualify compatibility by
        whether two invocations carry the *Same* or *Different* input
        Parameter.  By default the full argument tuple is the parameter; types
        such as the keyed Table override this so that only the key matters.
        """
        return invocation.args

    # ------------------------------------------------------------------
    # Declared semantics (the paper's published tables)
    # ------------------------------------------------------------------
    def compatibility(self):  # -> CompatibilitySpec (import cycle avoided)
        """Return the declared :class:`~repro.core.compatibility.CompatibilitySpec`.

        Subclasses override this with the tables published in the paper
        (Tables I-VIII).  The default raises, because a type without declared
        semantics can still be used via derived tables
        (:func:`repro.core.derivation.derive_compatibility`).
        """
        raise SpecificationError(
            f"type {self.name!r} declares no compatibility tables; "
            "derive them with repro.core.derivation.derive_compatibility"
        )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def states_equal(self, left: Any, right: Any) -> bool:
        """State equality used by the derivation machinery (override if needed)."""
        return left == right

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ops = ", ".join(self.operation_names())
        return f"<{type(self).__name__} {self.name!r} ops=[{ops}]>"


class FunctionalTypeSpecification(TypeSpecification):
    """A :class:`TypeSpecification` assembled from plain functions.

    Useful in tests and in the simulation workloads where an object's
    semantics are given directly by a compatibility table rather than by real
    state-transforming code.
    """

    def __init__(
        self,
        name: str,
        initial_state: Any,
        operations: Mapping[str, OperationSpec],
        sample_states: Optional[Sequence[Any]] = None,
        sample_invocations: Optional[Mapping[str, Sequence[Invocation]]] = None,
        compatibility: Optional[Any] = None,
    ):
        super().__init__(operations)
        self.name = name
        self._initial_state = initial_state
        self._sample_states = list(sample_states) if sample_states is not None else None
        self._sample_invocations = (
            {k: list(v) for k, v in sample_invocations.items()}
            if sample_invocations is not None
            else None
        )
        self._compatibility = compatibility

    def initial_state(self) -> Any:
        return self._initial_state

    def sample_states(self) -> Sequence[Any]:
        if self._sample_states is not None:
            return list(self._sample_states)
        return super().sample_states()

    def sample_invocations(self, op_name: str) -> Sequence[Invocation]:
        if self._sample_invocations is not None and op_name in self._sample_invocations:
            return list(self._sample_invocations[op_name])
        return super().sample_invocations(op_name)

    def compatibility(self):
        if self._compatibility is not None:
            return self._compatibility
        return super().compatibility()


def apply_sequence(
    spec: TypeSpecification, state: Any, invocations: Iterable[Invocation]
) -> OperationResult:
    """Apply a sequence of invocations, returning the final state and the
    value of the *last* operation (``state(O, s)`` extended to sequences).

    An empty sequence returns the input state with value ``None``.
    """
    value: Any = None
    for invocation in invocations:
        result = spec.apply(state, invocation)
        state, value = result.state, result.value
    return OperationResult(state=state, value=value)
