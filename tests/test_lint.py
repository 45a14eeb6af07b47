"""Fixture tests for the ``repro lint`` static analyzer.

Each REP rule gets at least one catching and one passing fixture; a
meta-test asserts the analyzer is clean on the repo's own source tree (the
acceptance gate CI enforces).
"""

import io
import json
import pathlib

import pytest

from repro.cli import main
from repro.lint import lint_paths, lint_sources, rule_counts

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def rules_in(sources):
    return {violation.rule for violation in lint_sources(sources)}


# ---------------------------------------------------------------------------
# REP001 — randomness only through RandomSource
# ---------------------------------------------------------------------------
class TestRep001:
    def test_catches_random_import(self):
        assert "REP001" in rules_in({"src/repro/sim/engine.py": "import random\n"})

    def test_catches_secrets_from_import(self):
        assert "REP001" in rules_in(
            {"src/repro/distributed/site.py": "from secrets import token_hex\n"}
        )

    def test_allows_random_source_module(self):
        assert "REP001" not in rules_in(
            {"src/repro/sim/random_source.py": "import random\n"}
        )

    def test_allows_other_imports(self):
        assert "REP001" not in rules_in({"src/repro/sim/engine.py": "import heapq\n"})


# ---------------------------------------------------------------------------
# REP002 — no unordered iteration in sim/distributed
# ---------------------------------------------------------------------------
class TestRep002:
    def test_catches_for_over_set_literal(self):
        assert "REP002" in rules_in(
            {"src/repro/distributed/x.py": "for a in {1, 2}:\n    pass\n"}
        )

    def test_catches_for_over_set_local(self):
        bad = "def f():\n    pending = set()\n    for item in pending:\n        pass\n"
        assert "REP002" in rules_in({"src/repro/sim/x.py": bad})

    def test_catches_dict_keys_iteration(self):
        bad = "def f(d):\n    for k in d.keys():\n        pass\n"
        assert "REP002" in rules_in({"src/repro/sim/x.py": bad})

    def test_catches_set_returning_method_cross_file(self):
        sources = {
            "src/repro/distributed/a.py": (
                "from typing import Set\n"
                "class T:\n"
                "    def written_objects(self) -> Set[str]:\n"
                "        return set()\n"
            ),
            "src/repro/distributed/b.py": (
                "def f(t):\n    for name in t.written_objects():\n        pass\n"
            ),
        }
        assert "REP002" in rules_in(sources)

    def test_catches_set_annotated_attribute(self):
        bad = (
            "from typing import Set\n"
            "class Site:\n"
            "    unreadable: Set[str]\n"
            "    def f(self):\n"
            "        for name in self.unreadable:\n"
            "            pass\n"
        )
        assert "REP002" in rules_in({"src/repro/distributed/x.py": bad})

    def test_allows_sorted_wrapper(self):
        good = "def f():\n    pending = set()\n    for item in sorted(pending):\n        pass\n"
        assert "REP002" not in rules_in({"src/repro/sim/x.py": good})

    def test_allows_list_iteration(self):
        good = "def f():\n    items = [1, 2]\n    for item in items:\n        pass\n"
        assert "REP002" not in rules_in({"src/repro/sim/x.py": good})

    def test_allows_membership_and_union_without_iteration(self):
        good = (
            "def f(a, b):\n"
            "    s = {1} | {2}\n"
            "    return 1 in s\n"
        )
        assert "REP002" not in rules_in({"src/repro/distributed/x.py": good})

    def test_outside_sim_distributed_not_checked(self):
        # core may iterate sets: its callers sort where order matters.
        code = "def f():\n    for a in {1, 2}:\n        pass\n"
        assert "REP002" not in rules_in({"src/repro/core/x.py": code})


# ---------------------------------------------------------------------------
# REP003 — no wall-clock in the deterministic layers
# ---------------------------------------------------------------------------
class TestRep003:
    def test_catches_time_time(self):
        assert "REP003" in rules_in(
            {"src/repro/sim/x.py": "import time\nstamp = time.time()\n"}
        )

    def test_catches_from_time_import(self):
        assert "REP003" in rules_in(
            {"src/repro/core/x.py": "from time import perf_counter\n"}
        )

    def test_catches_datetime_now(self):
        bad = "import datetime\nwhen = datetime.datetime.now()\n"
        assert "REP003" in rules_in({"src/repro/distributed/x.py": bad})

    def test_allows_analysis_layer(self):
        code = "import time\nstamp = time.time()\n"
        assert "REP003" not in rules_in({"src/repro/analysis/x.py": code})

    def test_allows_simulated_clock(self):
        code = "def f(engine):\n    return engine.now\n"
        assert "REP003" not in rules_in({"src/repro/sim/x.py": code})


# ---------------------------------------------------------------------------
# REP004 — import layering
# ---------------------------------------------------------------------------
class TestRep004:
    def test_catches_sim_importing_distributed(self):
        assert "REP004" in rules_in(
            {"src/repro/sim/x.py": "from repro.distributed.router import TransactionRouter\n"}
        )

    def test_catches_relative_upward_import(self):
        assert "REP004" in rules_in(
            {"src/repro/sim/x.py": "from ..distributed import router\n"}
        )

    def test_catches_core_importing_sim(self):
        assert "REP004" in rules_in(
            {"src/repro/core/x.py": "import repro.sim.engine\n"}
        )

    def test_allows_downward_imports(self):
        good = {
            "src/repro/distributed/x.py": "from ..sim.routing import create_router\n",
            "src/repro/sim/y.py": "from ..core.errors import SimulationError\n",
        }
        assert "REP004" not in rules_in(good)

    def test_package_init_relative_resolution(self):
        # ``from ..sim.routing import ...`` inside distributed/__init__.py
        # resolves against the package itself, not its parent.
        good = {
            "src/repro/distributed/__init__.py": (
                "from ..sim.routing import register_router_factory\n"
            )
        }
        assert "REP004" not in rules_in(good)


# ---------------------------------------------------------------------------
# REP005 — protocol-seam conformance
# ---------------------------------------------------------------------------
_SEAM_BASE = (
    "class CommitProtocol:\n"
    "    def commit(self, transaction):\n"
    "        raise NotImplementedError\n"
)


class TestRep005:
    def test_catches_missing_override(self):
        bad = _SEAM_BASE + (
            "class Lazy(CommitProtocol):\n"
            "    name = 'lazy'\n"
            "_PROTOCOLS = {Lazy.name: Lazy}\n"
        )
        violations = lint_sources({"src/repro/distributed/commit.py": bad})
        assert any(
            v.rule == "REP005" and "does not override" in v.message for v in violations
        )

    def test_catches_unregistered_subclass(self):
        bad = _SEAM_BASE + (
            "class Eager(CommitProtocol):\n"
            "    name = 'eager'\n"
            "    def commit(self, transaction):\n"
            "        return True\n"
        )
        violations = lint_sources({"src/repro/distributed/commit.py": bad})
        assert any(
            v.rule == "REP005" and "not registered" in v.message for v in violations
        )

    def test_catches_cli_choices_drift(self):
        sources = {
            "src/repro/distributed/commit.py": _SEAM_BASE
            + (
                "class Eager(CommitProtocol):\n"
                "    name = 'eager'\n"
                "    def commit(self, transaction):\n"
                "        return True\n"
                "_PROTOCOLS = {Eager.name: Eager}\n"
            ),
            "src/repro/cli.py": (
                "def build(parser):\n"
                "    parser.add_argument('--commit-protocol', choices=['one-phase'])\n"
            ),
        }
        violations = lint_sources(sources)
        assert any(
            v.rule == "REP005" and "CLI choices" in v.message for v in violations
        )

    def test_allows_conforming_subclass(self):
        good = {
            "src/repro/distributed/commit.py": _SEAM_BASE
            + (
                "class Eager(CommitProtocol):\n"
                "    name = 'eager'\n"
                "    def commit(self, transaction):\n"
                "        return True\n"
                "_PROTOCOLS = {Eager.name: Eager}\n"
            ),
            "src/repro/cli.py": (
                "def build(parser):\n"
                "    parser.add_argument('--commit-protocol', choices=['eager'])\n"
            ),
        }
        assert "REP005" not in rules_in(good)

    def test_allows_override_via_intermediate(self):
        good = _SEAM_BASE + (
            "class _Base(CommitProtocol):\n"
            "    def commit(self, transaction):\n"
            "        return True\n"
            "class Eager(_Base):\n"
            "    name = 'eager'\n"
            "_PROTOCOLS = {Eager.name: Eager}\n"
        )
        violations = lint_sources({"src/repro/distributed/commit.py": good})
        assert not any(
            v.rule == "REP005" and "does not override" in v.message for v in violations
        )

    def test_private_intermediate_not_checked(self):
        code = _SEAM_BASE + "class _Helper(CommitProtocol):\n    pass\n"
        assert "REP005" not in rules_in({"src/repro/distributed/commit.py": code})


# ---------------------------------------------------------------------------
# REP006 — counters must be surfaced
# ---------------------------------------------------------------------------
class TestRep006:
    def test_catches_unread_statistics_counter(self):
        bad = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class FooStatistics:\n"
            "    lost_counter: int = 0\n"
            "class User:\n"
            "    def bump(self):\n"
            "        self.stats.lost_counter += 1\n"
        )
        assert "REP006" in rules_in({"src/repro/core/x.py": bad})

    def test_catches_run_metrics_field_not_in_counters(self):
        bad = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class RunMetrics:\n"
            "    completions: int\n"
            "    forgotten: int\n"
            "    def counters(self):\n"
            "        return {'completions': self.completions}\n"
        )
        violations = lint_sources({"src/repro/sim/metrics.py": bad})
        assert any(
            v.rule == "REP006" and "forgotten" in v.message for v in violations
        )

    def test_allows_surfaced_counter(self):
        good = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class FooStatistics:\n"
            "    kept: int = 0\n"
            "class User:\n"
            "    def bump(self):\n"
            "        self.stats.kept += 1\n"
            "    def summary(self):\n"
            "        return {'kept': self.stats.kept}\n"
        )
        assert "REP006" not in rules_in({"src/repro/core/x.py": good})


# ---------------------------------------------------------------------------
# REP007 — per-event-path classes must declare __slots__
# ---------------------------------------------------------------------------
class TestRep007:
    def test_catches_slotless_class_instantiated_in_method(self):
        bad = (
            "class Token:\n"
            "    pass\n"
            "class Engine:\n"
            "    def fire(self):\n"
            "        return Token()\n"
        )
        assert "REP007" in rules_in({"src/repro/sim/x.py": bad})

    def test_catches_cross_file_instantiation(self):
        sources = {
            "src/repro/distributed/a.py": "class Branch:\n    pass\n",
            "src/repro/distributed/b.py": (
                "from .a import Branch\n"
                "def submit():\n"
                "    return Branch()\n"
            ),
        }
        assert "REP007" in rules_in(sources)

    def test_allows_slots_class(self):
        good = (
            "class Token:\n"
            "    __slots__ = ('value',)\n"
            "class Engine:\n"
            "    def fire(self):\n"
            "        return Token()\n"
        )
        assert "REP007" not in rules_in({"src/repro/sim/x.py": good})

    def test_allows_dataclass_with_slots(self):
        good = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True, slots=True)\n"
            "class Token:\n"
            "    value: int\n"
            "def fire():\n"
            "    return Token(1)\n"
        )
        assert "REP007" not in rules_in({"src/repro/sim/x.py": good})

    def test_allows_instantiation_in_init(self):
        # __init__ is setup wiring, not a per-event path.
        good = (
            "class Queue:\n"
            "    pass\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self.queue = Queue()\n"
        )
        assert "REP007" not in rules_in({"src/repro/sim/x.py": good})

    def test_allows_allow_listed_per_run_class(self):
        good = (
            "class RunMetrics:\n"
            "    pass\n"
            "class Collector:\n"
            "    def freeze(self):\n"
            "        return RunMetrics()\n"
        )
        assert "REP007" not in rules_in({"src/repro/sim/metrics.py": good})

    def test_allows_exception_and_enum_subclasses(self):
        good = (
            "from enum import Enum\n"
            "class Status(Enum):\n"
            "    OK = 1\n"
            "class SimError(ValueError):\n"
            "    pass\n"
            "def f():\n"
            "    raise SimError(Status.OK)\n"
        )
        assert "REP007" not in rules_in({"src/repro/sim/x.py": good})

    def test_outside_sim_distributed_not_checked(self):
        code = (
            "class Token:\n"
            "    pass\n"
            "def fire():\n"
            "    return Token()\n"
        )
        assert "REP007" not in rules_in({"src/repro/core/x.py": code})

    def test_pragma_suppresses(self):
        code = (
            "class Token:\n"
            "    pass\n"
            "def fire():\n"
            "    return Token()  # repro-lint: disable=REP007\n"
        )
        assert "REP007" not in rules_in({"src/repro/sim/x.py": code})


# ---------------------------------------------------------------------------
# REP008 — no tuple-keyed dict lookups on per-event paths
# ---------------------------------------------------------------------------
class TestRep008:
    def test_catches_subscript_with_tuple_key(self):
        bad = (
            "def probe(cache, a, b):\n"
            "    return cache[(a, b)]\n"
        )
        assert "REP008" in rules_in({"src/repro/core/x.py": bad})

    def test_catches_get_with_tuple_key(self):
        bad = (
            "def probe(cache, a, b):\n"
            "    return cache.get((a, b))\n"
        )
        assert "REP008" in rules_in({"src/repro/sim/x.py": bad})

    def test_catches_setdefault_and_pop_with_tuple_key(self):
        bad = (
            "def track(cache, a, b):\n"
            "    cache.setdefault((a, b), 0)\n"
            "    cache.pop((b, a), None)\n"
        )
        violations = lint_sources({"src/repro/distributed/x.py": bad})
        assert sum(1 for v in violations if v.rule == "REP008") == 2

    def test_allows_interned_index(self):
        good = (
            "def probe(table, requested_id, executed_id, n_ops):\n"
            "    return table[requested_id * n_ops + executed_id]\n"
        )
        assert "REP008" not in rules_in({"src/repro/core/x.py": good})

    def test_allows_init_and_allow_listed_functions(self):
        good = (
            "class Manager:\n"
            "    def __init__(self, pairs):\n"
            "        self.cache = {}\n"
            "        for a, b in pairs:\n"
            "            self.cache.get((a, b))\n"
            "    def _compile_policy(self, policy):\n"
            "        return self.cache[(policy, 0)]\n"
        )
        assert "REP008" not in rules_in({"src/repro/core/x.py": good})

    def test_allows_type_annotations(self):
        good = (
            "from typing import Dict, Tuple\n"
            "def build() -> Dict[Tuple[int, str], int]:\n"
            "    versions: Dict[Tuple[int, str], int] = {}\n"
            "    return versions\n"
        )
        assert "REP008" not in rules_in({"src/repro/distributed/x.py": good})

    def test_outside_checked_packages_not_checked(self):
        code = (
            "def probe(cache, a, b):\n"
            "    return cache[(a, b)]\n"
        )
        assert "REP008" not in rules_in({"src/repro/analysis/x.py": code})

    def test_pragma_suppresses(self):
        code = (
            "def probe(cache, a, b):\n"
            "    return cache[(a, b)]  # repro-lint: disable=REP008\n"
        )
        assert "REP008" not in rules_in({"src/repro/core/x.py": code})


# ---------------------------------------------------------------------------
# REP009 — no lambda/closure allocation inside per-event functions
# ---------------------------------------------------------------------------
class TestRep009:
    def test_catches_lambda_in_function_body(self):
        bad = (
            "def fire(engine, target, delay):\n"
            "    engine.schedule(delay, lambda: target.step())\n"
        )
        assert "REP009" in rules_in({"src/repro/sim/x.py": bad})

    def test_catches_nested_function(self):
        bad = (
            "def fire(engine, target, delay):\n"
            "    def callback():\n"
            "        target.step()\n"
            "    engine.schedule(delay, callback)\n"
        )
        assert "REP009" in rules_in({"src/repro/distributed/x.py": bad})

    def test_allows_module_and_class_scope_lambdas(self):
        good = (
            "KEY = lambda pair: pair[0]\n"
            "class Ranked:\n"
            "    order = staticmethod(lambda pair: pair[1])\n"
        )
        assert "REP009" not in rules_in({"src/repro/sim/x.py": good})

    def test_allows_setup_methods(self):
        good = (
            "class Model:\n"
            "    def __init__(self, backend):\n"
            "        self.factory = lambda: backend\n"
            "    def reset(self):\n"
            "        def rebuild():\n"
            "            return None\n"
            "        self.factory = rebuild\n"
        )
        assert "REP009" not in rules_in({"src/repro/sim/x.py": good})

    def test_allows_method_default_evaluated_at_import(self):
        # A lambda default on a module-level function or method is built
        # once at definition time, not per call.
        good = (
            "class Ranker:\n"
            "    def rank(self, items, key=lambda item: item):\n"
            "        return sorted(items, key=key)\n"
        )
        assert "REP009" not in rules_in({"src/repro/distributed/x.py": good})

    def test_outside_checked_packages_not_checked(self):
        code = (
            "def fire(engine, target, delay):\n"
            "    engine.schedule(delay, lambda: target.step())\n"
        )
        assert "REP009" not in rules_in({"src/repro/analysis/x.py": code})

    def test_pragma_suppresses(self):
        code = (
            "def fire(engine, target, delay):\n"
            "    engine.schedule(delay, lambda: target.step())  # repro-lint: disable=REP009\n"
        )
        assert "REP009" not in rules_in({"src/repro/sim/x.py": code})


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------
class TestPragma:
    def test_named_pragma_suppresses_that_rule(self):
        code = "import random  # repro-lint: disable=REP001\n"
        assert rules_in({"src/repro/sim/x.py": code}) == set()

    def test_named_pragma_keeps_other_rules(self):
        code = "import random  # repro-lint: disable=REP003\n"
        assert "REP001" in rules_in({"src/repro/sim/x.py": code})

    def test_bare_pragma_suppresses_everything(self):
        code = "import random  # repro-lint: disable\n"
        assert rules_in({"src/repro/sim/x.py": code}) == set()


# ---------------------------------------------------------------------------
# The meta-test: the repo's own tree is clean, through the real CLI
# ---------------------------------------------------------------------------
class TestRepoTree:
    def test_repo_tree_is_clean(self):
        violations = lint_paths([str(REPO_SRC)])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_cli_lint_exits_zero_on_repo(self):
        out = io.StringIO()
        assert main(["lint", str(REPO_SRC)], out=out) == 0
        assert "no violations" in out.getvalue()

    def test_cli_lint_json_reports_counts(self):
        out = io.StringIO()
        assert main(["lint", "--json", str(REPO_SRC)], out=out) == 0
        payload = json.loads(out.getvalue())
        assert set(payload) == {"checked_files", "counts", "violations"}
        assert payload["violations"] == []
        assert set(payload["counts"]) == {
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007",
            "REP008", "REP009",
        }
        assert payload["checked_files"] > 20

    def test_cli_lint_exits_nonzero_on_bad_file(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n")
        out = io.StringIO()
        assert main(["lint", str(bad)], out=out) == 1
        assert "REP001" in out.getvalue()

    def test_cli_lint_missing_path_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "no_such_dir"
        out = io.StringIO()
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(REPO_SRC), str(missing)], out=out)
        assert excinfo.value.code == 2
        assert str(missing) in capsys.readouterr().err
        assert out.getvalue() == ""

    def test_rule_counts_accounts_every_violation(self):
        violations = lint_sources(
            {"src/repro/sim/x.py": "import random\nimport secrets\n"}
        )
        counts = rule_counts(violations)
        assert counts["REP001"] == 2
        assert sum(counts.values()) == len(violations)
