"""REP006 — no silently lost counters.

Two clauses:

1. every ``int`` field declared on :class:`RunMetrics` must be read inside
   its ``counters()`` method — that dict is the single source of truth for
   the CLI ``--json`` counter block and the benchmark's counter digest;
2. every field of a ``*Statistics`` counter class that is incremented
   (``stats.x += ...``) anywhere must be read by attribute name somewhere in
   the analyzed tree (a summary dict, ``as_dict()``, the CLI payload, ...).
   A counter that is bumped but never surfaced is measurement work thrown
   away — and invisible drift when runs are compared across commits.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from ..base import Project, Rule, Violation

__all__ = ["Rep006CounterSurfacing"]


class Rep006CounterSurfacing(Rule):
    id = "REP006"
    summary = "counter incremented but never surfaced"

    def check(self, project: Project) -> Iterable[Violation]:
        violations: List[Violation] = []
        violations.extend(self._check_run_metrics(project))
        violations.extend(self._check_statistics(project))
        return violations

    # ------------------------------------------------------------------
    # Clause 1: RunMetrics fields vs counters()
    # ------------------------------------------------------------------
    def _check_run_metrics(self, project: Project) -> Iterable[Violation]:
        for source, node in project.walk():
            if not (isinstance(node, ast.ClassDef) and node.name == "RunMetrics"):
                continue
            int_fields = [
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and isinstance(item.annotation, ast.Name)
                and item.annotation.id == "int"
            ]
            counters = next(
                (
                    item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "counters"
                ),
                None,
            )
            if counters is None:
                yield Violation(
                    rule=self.id,
                    path=source.path,
                    line=node.lineno,
                    message="RunMetrics has no counters() method",
                )
                continue
            surfaced = {
                inner.attr
                for inner in ast.walk(counters)
                if isinstance(inner, ast.Attribute)
                and isinstance(inner.ctx, ast.Load)
            }
            for field in int_fields:
                if field not in surfaced:
                    yield Violation(
                        rule=self.id,
                        path=source.path,
                        line=node.lineno,
                        message=(
                            f"RunMetrics.{field} is declared but not surfaced "
                            "in counters()"
                        ),
                    )

    # ------------------------------------------------------------------
    # Clause 2: *Statistics increments vs reads
    # ------------------------------------------------------------------
    def _check_statistics(self, project: Project) -> Iterable[Violation]:
        stat_fields: Set[str] = set()
        for _, node in project.walk():
            if isinstance(node, ast.ClassDef) and node.name.endswith("Statistics"):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        stat_fields.add(item.target.id)
        if not stat_fields:
            return

        increments: Dict[str, Tuple[str, int]] = {}
        reads: Set[str] = set()
        for source, node in project.walk():
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr in stat_fields
            ):
                increments.setdefault(
                    node.target.attr, (source.path, node.lineno)
                )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in stat_fields
            ):
                reads.add(node.attr)

        for field in sorted(increments):
            if field in reads:
                continue
            path, line = increments[field]
            yield Violation(
                rule=self.id,
                path=path,
                line=line,
                message=(
                    f"counter '{field}' is incremented here but never read — "
                    "surface it in a summary/as_dict/CLI payload or drop it"
                ),
            )
