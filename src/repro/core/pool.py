"""Slab/freelist pooling for the per-request boxes on the hot path.

With request pooling on, the scheduler retires every
:class:`~repro.core.requests.RequestHandle` (and every
``PendingRequest`` queue box) to a freelist when its transaction reaches a
terminal state, and later submits pop the freelist instead of constructing a
fresh instance.  The recycled object is *reinitialised field by field* by
the acquiring site, so the pooled path produces byte-identical observable
state to a fresh construction — the pinned equivalence suites prove the
event and RNG streams unchanged.

Safety comes from generation counters, not discipline: retiring a handle
bumps ``generation`` and stamps it ``RECYCLED``, so a caller that stashed a
reference across the recycle gets a loud
:class:`~repro.core.errors.StaleHandleError` on its next status read rather
than silently aliasing another request.

The pool itself is deliberately dumb: a LIFO freelist with counters.  It
never constructs objects (``acquire`` returns ``None`` when empty, and the
call site constructs), so it stays agnostic of the pooled class's fields and
the hot paths can inline the ``pop``/reset sequence without calling into the
pool at all.
"""

from __future__ import annotations

from typing import Generic, List, Optional, TypeVar

__all__ = ["ObjectPool"]

T = TypeVar("T")


class ObjectPool(Generic[T]):
    """A LIFO freelist of retired, reusable instances of one class."""

    __slots__ = ("free", "created", "reused", "released")

    def __init__(self) -> None:
        #: The freelist.  Public so hot paths can inline ``free.pop()`` /
        #: ``free.extend(objs)``; every object on it has been retired.
        self.free: List[T] = []
        self.created = 0
        self.reused = 0
        self.released = 0

    def acquire(self) -> Optional[T]:
        """Pop a retired instance, or ``None`` when the caller must construct.

        The caller is responsible for reinitialising *every* caller-visible
        field of a reused instance (``generation`` excepted — it must keep
        counting up across reuses for staleness detection).
        """
        if self.free:
            self.reused += 1
            return self.free.pop()
        self.created += 1
        return None

    def release(self, obj: T) -> None:
        """Push a retired instance onto the freelist.

        The instance must already be retired (generation bumped, status
        stamped ``RECYCLED``): the pool does not do it, so inlined release
        sites keep full control of the field resets.
        """
        self.released += 1
        self.free.append(obj)

    def __len__(self) -> int:
        return len(self.free)

    def as_dict(self) -> dict:
        """Counters for statistics surfaces (REP006: no silent counters)."""
        return {
            "created": self.created,
            "reused": self.reused,
            "released": self.released,
            "free": len(self.free),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ObjectPool free={len(self.free)} created={self.created} "
            f"reused={self.reused} released={self.released}>"
        )
