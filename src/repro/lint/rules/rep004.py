"""REP004 — import layering.

``repro.core`` and ``repro.adts`` are the bottom layer and never import the
simulation or distributed packages; ``repro.sim`` sits above them and never
imports ``repro.distributed``: the router arrives through the
:mod:`repro.sim.routing` seam, whose constructor the unlayered ``repro``
package registers and which imports ``repro.distributed`` on the first
multi-site build.  ``repro.distributed`` may import anything below it.
Violations are exactly the imports whose target layer ranks above the
importing file's layer.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from ..base import Project, Rule, Violation, module_layer

__all__ = ["Rep004ImportLayering"]

_RANK = {"core": 0, "sim": 1, "distributed": 2}


def _resolve_relative(module: str, is_package: bool, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    # ``from . import x`` in a plain module drops the module's own name
    # first; a package __init__ is already named after its package.
    if parts and not is_package:
        parts = parts[:-1]
    hops = node.level - 1
    if hops:
        if hops > len(parts):
            return None
        parts = parts[: len(parts) - hops]
    if node.module:
        parts = parts + node.module.split(".")
    return ".".join(parts)


class Rep004ImportLayering(Rule):
    id = "REP004"
    summary = "import crosses the layer boundary upward"

    def check(self, project: Project) -> Iterable[Violation]:
        for source in project.files:
            layer = module_layer(source.module)
            if layer is None:
                continue
            yield from self._check_file(source, layer)

    def _check_file(self, source, layer: str) -> Iterator[Violation]:
        rank = _RANK[layer]
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield from self._check_target(source, node, rank, alias.name)
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_relative(source.module, source.is_package, node)
                if target is not None:
                    yield from self._check_target(source, node, rank, target)

    def _check_target(self, source, node: ast.stmt, rank: int, target: str) -> Iterator[Violation]:
        target_layer = module_layer(target)
        if target_layer is None or _RANK[target_layer] <= rank:
            return
        yield Violation(
            rule=self.id,
            path=source.path,
            line=node.lineno,
            message=(
                f"'{source.module}' ({module_layer(source.module)} layer) "
                f"imports '{target}' ({target_layer} layer); dependencies "
                "must point downward (core/adts < sim < distributed)"
            ),
        )
