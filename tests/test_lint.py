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
from repro.lint import ALL_RULES, lint_paths, lint_sources, render_text, rule_counts
from repro.lint.runner import collect_files

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
            "src/repro/sim/params.py": (
                "class SimulationParameters:\n"
                "    commit_protocol: str = _flag(\n"
                "        'one-phase', '--commit-protocol', 'help', choices=('one-phase',)\n"
                "    )\n"
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
            "src/repro/sim/params.py": (
                "class SimulationParameters:\n"
                "    commit_protocol: str = _flag(\n"
                "        'eager', '--commit-protocol', 'help', choices=('eager',)\n"
                "    )\n"
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

    @pytest.mark.parametrize(
        "code, found",
        [
            ("import random  # repro-lint: disable=REP003, rep001\n", set()),
            ("# repro-lint: disable=REP001\nimport random\n", {"REP001"}),  # own line only
            ("import random  # repro-lint: disable=REP099\n", {"REP001"}),  # unknown id
        ],
    )
    def test_pragma_names_rules_for_its_own_line(self, code, found):
        assert rules_in({"src/repro/sim/x.py": code}) == found


# ---------------------------------------------------------------------------
# The meta-test: the repo's own tree is clean, through the real CLI
# ---------------------------------------------------------------------------
class TestRepoTree:
    def test_registry_is_rep001_to_rep006_in_id_order(self):
        assert [rule.id for rule in ALL_RULES] == [f"REP00{n}" for n in range(1, 7)]
        assert all(rule.summary for rule in ALL_RULES)

    def test_rule_counts_lists_every_rule_when_clean(self):
        assert rule_counts([]) == {rule.id: 0 for rule in ALL_RULES}

    def test_text_report_names_path_line_and_rule(self):
        violations = lint_sources({"src/repro/sim/x.py": "x = 1\nimport random\n"})
        lines = render_text(violations).splitlines()
        assert lines[0].startswith("src/repro/sim/x.py:2: REP001 ")
        assert lines[-1] == "repro lint: 1 violation(s)"

    def test_collect_files_walks_directories_in_sorted_order(self, tmp_path):
        for name in ("b.py", "a/z.py", "a/y.txt", "c.py"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text("")
        files = collect_files([str(tmp_path), str(tmp_path / "a" / "y.txt")])
        assert [pathlib.Path(f).relative_to(tmp_path).as_posix() for f in files] == [
            "b.py", "c.py", "a/z.py",
        ]

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
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
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

    def test_cli_lint_syntax_error_is_a_usage_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("x = 1\ndef f(:\n    pass\n")
        out = io.StringIO()
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(broken)], out=out)
        assert excinfo.value.code == 2
        assert f"{broken}:2" in capsys.readouterr().err
        assert out.getvalue() == ""

    def test_cli_lint_undecodable_file_is_a_usage_error(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.py"
        latin1.write_bytes(b"x = 1\nname = '\xe9'\n")
        out = io.StringIO()
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(latin1)], out=out)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{latin1}:2" in err and "UTF-8" in err
        assert out.getvalue() == ""

    @pytest.mark.parametrize(
        "data, line, reason",
        [(b"x = 1\ndef f(:\n", 2, "invalid syntax"), (b"x = 1\n\ny = '\xff'\n", 3, "UTF-8")],
    )
    def test_lint_paths_raises_syntax_error_naming_file_and_line(
        self, tmp_path, data, line, reason
    ):
        bad = tmp_path / "bad.py"
        bad.write_bytes(data)
        with pytest.raises(SyntaxError, match=reason) as excinfo:
            lint_paths([str(tmp_path)])
        assert (excinfo.value.filename, excinfo.value.lineno) == (str(bad), line)

    def test_cli_lint_unparsable_file_in_a_directory_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "a_clean.py").write_text("x = 1\n")
        (tmp_path / "b_broken.py").write_text("if True\n")
        out = io.StringIO()
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--json", str(tmp_path)], out=out)
        assert excinfo.value.code == 2
        assert f"{tmp_path / 'b_broken.py'}:1" in capsys.readouterr().err
        assert out.getvalue() == ""

    def test_cli_lint_json_counts_a_bad_file(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nimport time\nstamp = time.time()\n")
        out = io.StringIO()
        assert main(["lint", "--json", str(bad)], out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["checked_files"] == 1
        assert payload["counts"] == dict(rule_counts([]), REP001=1, REP003=1)
        found = [(v["rule"], v["line"]) for v in payload["violations"]]
        assert found == [("REP001", 1), ("REP003", 3)]

    def test_rule_counts_accounts_every_violation(self):
        violations = lint_sources(
            {"src/repro/sim/x.py": "import random\nimport secrets\n"}
        )
        counts = rule_counts(violations)
        assert counts["REP001"] == 2
        assert sum(counts.values()) == len(violations)
