"""``repro lint`` — the repo-specific determinism & conformance analyzer.

Six AST rules guard the invariants the reproduction's pinned random streams,
pluggable protocol seams and surfaced counters depend on:

* **REP001** randomness only through ``RandomSource``;
* **REP002** no iteration over unordered sets/dict-keys in sim/distributed;
* **REP003** no wall-clock inside the deterministic layers;
* **REP004** import layering (core/adts < sim < distributed);
* **REP005** protocol subclasses in sync with factory registries and the
  declared ``SimulationParameters`` choices;
* **REP006** every incremented counter surfaced in a summary.

Suppress a finding with an inline ``# repro-lint: disable=REPxxx`` pragma on
the offending line.  See README "Static analysis & determinism guarantees".
"""

from .base import Project, Rule, SourceFile, Violation
from .rules import ALL_RULES
from .runner import lint_paths, lint_sources, render_json, render_text, rule_counts

__all__ = [
    "ALL_RULES",
    "Project",
    "Rule",
    "SourceFile",
    "Violation",
    "lint_paths",
    "lint_sources",
    "render_json",
    "render_text",
    "rule_counts",
]
