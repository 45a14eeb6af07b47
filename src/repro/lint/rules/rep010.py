"""REP010 — pool-managed request boxes are constructed only by their pools.

With request pooling on, :class:`~repro.core.requests.RequestHandle` and
:class:`~repro.core.object_manager.PendingRequest` instances are recycled
through per-scheduler :class:`~repro.core.pool.ObjectPool` freelists:
``Scheduler.submit`` acquires from the freelist and reinitialises, and
retirement stamps the box ``RECYCLED`` with a bumped generation.  A direct construction anywhere else silently forks
the lifecycle: the fresh box is never tracked on its transaction, never
retired, and splits the "pooled and unpooled runs are bit-identical"
invariant into one that only holds for the sites that remembered the
freelist.

Checked: ``RequestHandle(...)`` and ``PendingRequest(...)`` call
expressions in ``repro.sim`` and ``repro.distributed`` — the layers above
the pool seam, which must go through ``Scheduler.submit`` instead of
constructing request boxes.  Not
checked: ``repro.core`` itself (the pools and their factories live there),
annotations (a bare name in a type position is not a call), and anything
under the standard pragma (``# repro-lint: disable=REP010``).
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..base import Project, Rule, SourceFile, Violation

__all__ = ["Rep010PooledConstruction"]

#: Packages whose call expressions the rule examines: everything above the
#: pool seam.  ``repro.core`` owns the pools and legitimately constructs.
_CHECKED_PREFIXES = ("repro.sim", "repro.distributed")

#: Classes whose instances are pool-managed.
_POOLED_CLASSES = ("RequestHandle", "PendingRequest")


class Rep010PooledConstruction(Rule):
    id = "REP010"
    summary = "pool-managed request box constructed outside its pool"

    def check(self, project: Project) -> Iterable[Violation]:
        for source in project.files:
            if not source.module.startswith(_CHECKED_PREFIXES):
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = self._called_name(node.func)
                if name in _POOLED_CLASSES:
                    yield self._violation(source, node, name)

    @staticmethod
    def _called_name(func: ast.expr) -> str:
        """The plain or dotted-attribute name a call expression targets."""
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return ""

    def _violation(self, source: SourceFile, node: ast.Call, name: str) -> Violation:
        return Violation(
            rule=self.id,
            path=source.path,
            line=node.lineno,
            message=(
                f"direct construction of pool-managed {name}; with request "
                "pooling on these boxes are recycled through the scheduler's "
                "freelists — go through Scheduler.submit (repro.core owns "
                "construction), or "
                "suppress with '# repro-lint: disable=REP010'"
            ),
        )
