"""Collect files, run every REP rule, render text or JSON."""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .base import Project, SourceFile, Violation
from .rules import ALL_RULES

__all__ = ["collect_files", "lint_paths", "lint_sources", "rule_counts", "render_text", "render_json"]


def collect_files(paths: Sequence[str]) -> List[str]:
    collected: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        collected.append(os.path.join(dirpath, filename))
        elif path.endswith(".py"):
            collected.append(path)
    return collected


def _run(project: Project, rules: Optional[Iterable[type]] = None) -> List[Violation]:
    violations: List[Violation] = []
    for rule_class in rules if rules is not None else ALL_RULES:
        violations.extend(rule_class().check(project))
    by_path = {source.path: source for source in project.files}
    kept = [
        violation
        for violation in violations
        if by_path[violation.path].allows(violation)
    ]
    return sorted(kept, key=lambda v: (v.path, v.line, v.rule, v.message))


def lint_paths(
    paths: Sequence[str], rules: Optional[Iterable[type]] = None
) -> List[Violation]:
    """Lint files and directories on disk.

    A file that is not UTF-8 or not Python raises :class:`SyntaxError`
    naming the file and line.
    """
    sources = []
    for path in collect_files(paths):
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # What the interpreter reports for an undecodable source file.
            line = data[: exc.start].count(b"\n") + 1
            raise SyntaxError(f"not valid UTF-8 ({exc.reason})", (path, line, None, None)) from None
        sources.append(SourceFile(path=path, text=text))
    return _run(Project(sources), rules)


def lint_sources(
    sources: Mapping[str, str], rules: Optional[Iterable[type]] = None
) -> List[Violation]:
    """Lint in-memory sources (path → text); used by the fixture tests."""
    files = [SourceFile(path=path, text=text) for path, text in sources.items()]
    return _run(Project(files), rules)


def rule_counts(violations: Iterable[Violation]) -> Dict[str, int]:
    """Violations per rule id, with every registered rule present."""
    counts = {rule.id: 0 for rule in ALL_RULES}
    for violation in violations:
        counts[violation.rule] = counts.get(violation.rule, 0) + 1
    return counts


def render_text(violations: Sequence[Violation]) -> str:
    if not violations:
        return "repro lint: no violations\n"
    lines = [violation.render() for violation in violations]
    lines.append(f"repro lint: {len(violations)} violation(s)")
    return "\n".join(lines) + "\n"


def render_json(violations: Sequence[Violation], checked_files: int) -> str:
    payload = {
        "checked_files": checked_files,
        "counts": rule_counts(violations),
        "violations": [
            {
                "rule": violation.rule,
                "path": violation.path,
                "line": violation.line,
                "message": violation.message,
            }
            for violation in violations
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
