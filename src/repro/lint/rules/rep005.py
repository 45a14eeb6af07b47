"""REP005 — protocol-seam conformance.

The pluggable seams (`ConcurrencyControlBackend`, `ReplicationProtocol`,
`CommitProtocol`, `PlacementPolicy`) are wired three ways: subclasses
override the abstract surface, a factory/registry in the defining module
maps names to classes, and the ``SimulationParameters`` field selecting the
seam declares the names as static ``choices`` (which the CLI offers).
Nothing ties the three together at runtime until a run actually selects the
protocol — this rule catches the drift statically.  A concrete subclass
(name not starting with ``_``) must

1. override, directly or via an analyzed ancestor, every public method the
   seam base leaves raising ``NotImplementedError``;
2. be referenced somewhere else in its defining module (the factory
   function or registry literal);
3. when the seam is CLI-selectable and the project includes
   ``repro.sim.params``, have its ``name`` literal present in some
   ``choices`` declared there.

Backend subclasses skip check 3: their CLI choices derive dynamically from
``ConflictPolicy``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from ..base import Project, Rule, SourceFile, Violation

__all__ = ["Rep005SeamConformance"]

_SEAM_BASES = {
    "ConcurrencyControlBackend",
    "ReplicationProtocol",
    "CommitProtocol",
    "PlacementPolicy",
}
#: Seams whose instances are selected by a static declared ``choices`` list.
_CLI_SEAMS = {"ReplicationProtocol", "CommitProtocol", "PlacementPolicy"}


class _ClassInfo:
    def __init__(self, source: SourceFile, node: ast.ClassDef):
        self.source = source
        self.node = node
        self.name = node.name
        self.bases = [Rule.dotted_name(base) for base in node.bases]
        self.methods: Dict[str, ast.FunctionDef] = {
            item.name: item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        #: the ``name = "..."`` registry key, when declared.
        self.registry_name: Optional[str] = None
        for item in node.body:
            if (
                isinstance(item, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "name" for t in item.targets)
                and isinstance(item.value, ast.Constant)
                and isinstance(item.value.value, str)
            ):
                self.registry_name = item.value.value


class Rep005SeamConformance(Rule):
    id = "REP005"
    summary = "protocol subclass out of sync with its seam/factory/CLI"

    def check(self, project: Project) -> Iterable[Violation]:
        classes: Dict[str, _ClassInfo] = {}
        for source, node in project.walk():
            if isinstance(node, ast.ClassDef):
                classes[node.name] = _ClassInfo(source, node)

        cli_choices = self._cli_choices(project)
        violations: List[Violation] = []
        for info in classes.values():
            seam = self._seam_of(info, classes)
            if seam is None or info.name in _SEAM_BASES or info.name.startswith("_"):
                continue
            base_info = classes.get(seam)
            if base_info is None:
                continue
            violations.extend(
                self._check_concrete(info, base_info, classes, cli_choices)
            )
        return violations

    # ------------------------------------------------------------------
    def _seam_of(
        self, info: _ClassInfo, classes: Dict[str, _ClassInfo]
    ) -> Optional[str]:
        """The seam base this class (transitively) derives from, if any."""
        seen: Set[str] = set()
        frontier = [info]
        while frontier:
            current = frontier.pop()
            for base in current.bases:
                if base is None:
                    continue
                base_name = base.split(".")[-1]
                if base_name in _SEAM_BASES:
                    return base_name
                if base_name in classes and base_name not in seen:
                    seen.add(base_name)
                    frontier.append(classes[base_name])
        return None

    def _abstract_surface(self, base: _ClassInfo) -> List[str]:
        return sorted(
            name
            for name, method in base.methods.items()
            if not name.startswith("_") and self.raises_not_implemented(method)
        )

    def _overrides(
        self, info: _ClassInfo, classes: Dict[str, _ClassInfo], method: str
    ) -> bool:
        """True when the class or an analyzed ancestor (below the seam base)
        provides a real (non-NotImplementedError) body for ``method``."""
        seen: Set[str] = set()
        frontier = [info]
        while frontier:
            current = frontier.pop()
            candidate = current.methods.get(method)
            if candidate is not None and not self.raises_not_implemented(candidate):
                return True
            for base in current.bases:
                base_name = (base or "").split(".")[-1]
                if base_name in _SEAM_BASES:
                    continue
                ancestor = classes.get(base_name)
                if ancestor is not None and base_name not in seen:
                    seen.add(base_name)
                    frontier.append(ancestor)
        return False

    def _referenced_in_module(self, info: _ClassInfo) -> bool:
        """Name-load of the class outside its own definition (the registry)."""
        for node in ast.walk(info.source.tree):
            if node is info.node:
                continue
            if (
                isinstance(node, ast.Name)
                and node.id == info.name
                and isinstance(node.ctx, ast.Load)
            ):
                # Skip loads *inside* the class's own body (e.g. decorators
                # are outside; super() calls use the name too — they still
                # count as registry-ish only when outside the ClassDef).
                if not self._inside(info.node, node):
                    return True
        return False

    @staticmethod
    def _inside(outer: ast.AST, node: ast.AST) -> bool:
        return any(node is child for child in ast.walk(outer))

    def _cli_choices(self, project: Project) -> Optional[Set[str]]:
        """Union of string literals in the ``choices=`` declared by
        ``repro.sim.params`` (None: no parameters module)."""
        params = project.module("repro.sim.params")
        if params is None:
            return None
        choices: Set[str] = set()
        for node in ast.walk(params.tree):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg != "choices":
                    continue
                for element in ast.walk(keyword.value):
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        choices.add(element.value)
        return choices

    # ------------------------------------------------------------------
    def _check_concrete(
        self,
        info: _ClassInfo,
        base: _ClassInfo,
        classes: Dict[str, _ClassInfo],
        cli_choices: Optional[Set[str]],
    ) -> Iterable[Violation]:
        for method in self._abstract_surface(base):
            if not self._overrides(info, classes, method):
                yield Violation(
                    rule=self.id,
                    path=info.source.path,
                    line=info.node.lineno,
                    message=(
                        f"{info.name} does not override abstract "
                        f"{base.name}.{method}()"
                    ),
                )
        if not self._referenced_in_module(info):
            yield Violation(
                rule=self.id,
                path=info.source.path,
                line=info.node.lineno,
                message=(
                    f"{info.name} is not registered in its module's "
                    f"factory/registry (no reference outside the class body)"
                ),
            )
        if (
            cli_choices is not None
            and base.name in _CLI_SEAMS
            and info.registry_name is not None
            and info.registry_name not in cli_choices
        ):
            yield Violation(
                rule=self.id,
                path=info.source.path,
                line=info.node.lineno,
                message=(
                    f"{info.name} (name='{info.registry_name}') is missing "
                    "from the CLI choices declared in repro/sim/params.py"
                ),
            )
