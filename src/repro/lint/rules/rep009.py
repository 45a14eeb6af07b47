"""REP009 — no lambda/closure allocation inside per-event functions.

Every ``lambda`` expression and nested ``def`` that executes inside a
function body allocates a fresh function object — plus a cell per captured
variable — on *each* execution.  On the simulator's per-event paths
(callbacks scheduled per operation, per commit, per terminal think) those
allocations add interpreter calls and garbage for work a bound method or a
``functools.partial`` of one does with none.  The fused-grant-path pass
converted the hot callbacks to partials; this rule keeps the pattern from
creeping back.

Checked: ``lambda`` expressions and nested function definitions inside
function bodies of ``repro.sim`` and ``repro.distributed``.  Not checked:
setup bodies (``__init__`` / ``__post_init__`` / ``reset`` run once per run
or per parameter point), lambdas at module or class scope (evaluated once at
import), and anything under the standard pragma
(``# repro-lint: disable=REP009``).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Sequence

from ..base import Project, Rule, SourceFile, Violation

__all__ = ["Rep009ClosureAllocation"]

#: Packages whose function bodies the rule examines.
_CHECKED_PREFIXES = ("repro.sim", "repro.distributed")

#: Constructor-cadence methods: run once per run or per parameter point.
_SETUP_FUNCTIONS = ("__init__", "__post_init__", "reset")


class Rep009ClosureAllocation(Rule):
    id = "REP009"
    summary = "lambda/closure allocated inside a per-event function"

    def check(self, project: Project) -> Iterable[Violation]:
        for source in project.files:
            if not source.module.startswith(_CHECKED_PREFIXES):
                continue
            yield from self._scan(
                source,
                list(ast.iter_child_nodes(source.tree)),
                in_function=False,
                exempt=False,
            )

    def _scan(
        self,
        source: SourceFile,
        nodes: Sequence[ast.AST],
        in_function: bool,
        exempt: bool,
    ) -> Iterator[Violation]:
        """Walk ``nodes`` tracking whether the enclosing scope is a
        (non-exempt) function body, i.e. whether an allocation here repeats
        per call."""
        for child in nodes:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_exempt = exempt or child.name in _SETUP_FUNCTIONS
                if in_function and not child_exempt:
                    yield self._violation(
                        source, child, f"nested function '{child.name}'"
                    )
                # Defaults and decorators evaluate at definition time — the
                # enclosing scope's cadence; the body runs per call.
                definition_time = [
                    default
                    for default in (
                        list(child.args.defaults) + list(child.args.kw_defaults)
                    )
                    if default is not None
                ] + list(child.decorator_list)
                yield from self._scan(source, definition_time, in_function, exempt)
                yield from self._scan(source, child.body, True, child_exempt)
            elif isinstance(child, ast.Lambda):
                if in_function and not exempt:
                    yield self._violation(source, child, "lambda")
                yield from self._scan(source, [child.body], in_function, exempt)
            else:
                yield from self._scan(
                    source, list(ast.iter_child_nodes(child)), in_function, exempt
                )

    def _violation(self, source: SourceFile, node: ast.AST, what: str) -> Violation:
        return Violation(
            rule=self.id,
            path=source.path,
            line=getattr(node, "lineno", 1),
            message=(
                f"{what} is allocated on every call of its enclosing "
                "function; on a per-event path use a bound method or "
                "functools.partial (they also profile without a wrapper "
                "frame), or suppress with '# repro-lint: disable=REP009'"
            ),
        )
