"""Tests for the command-line interface (``python -m repro``)."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestTablesCommand:
    def test_single_type(self):
        code, text = run_cli("tables", "--type", "stack")
        assert code == 0
        assert "Table III" in text and "Table IV" in text
        assert "Table I " not in text

    def test_all_types_include_parameters(self):
        code, text = run_cli("tables")
        assert code == 0
        assert "Table I" in text and "Table VII" in text
        assert "database_size" in text


class TestFiguresCommand:
    def test_runs_a_smoke_scale_figure_and_saves_report(self, tmp_path):
        code, text = run_cli("figures", "--only", "figure-4", "--scale", "smoke",
                             "--out", str(tmp_path))
        assert code == 0
        assert "figure-4" in text
        assert "recoverability" in text
        assert text.endswith("shape (smoke scale): held\n")
        saved = (tmp_path / "figure-4.txt").read_text()
        assert "summary (throughput)" in saved
        assert "shape" not in saved

    def test_a_failed_shape_is_reported_and_exits_zero(self, monkeypatch):
        import dataclasses

        from repro.analysis import EXPERIMENT_REGISTRY

        entry = EXPERIMENT_REGISTRY.entry("figure-4")
        failing = dataclasses.replace(entry, check=lambda result: ["a: got 1, expected > 2", "b"])
        monkeypatch.setitem(EXPERIMENT_REGISTRY._entries, "figure-4", failing)
        code, text = run_cli("figures", "--only", "figure-4", "--scale", "smoke")
        assert code == 0
        assert text.endswith("shape (smoke scale): not held: a: got 1, expected > 2; b\n")

    @pytest.mark.parametrize("argv", [("figure", "figure-4"), ("list",)])
    def test_removed_subcommands_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_list_shows_every_registry_entry(self):
        from repro.analysis import EXPERIMENT_REGISTRY

        code, text = run_cli("figures", "--list")
        assert code == 0
        for experiment_id in EXPERIMENT_REGISTRY.ids():
            assert experiment_id in text
        assert "[distributed]" in text and "[tables]" in text

    def test_only_with_workers_and_out(self, tmp_path):
        code, text = run_cli(
            "figures", "--only", "ablation-pseudo-commit-slot",
            "--workers", "2", "--scale", "smoke", "--out", str(tmp_path),
        )
        assert code == 0
        assert "holds-slot" in text
        saved = (tmp_path / "ablation-pseudo-commit-slot.txt").read_text()
        assert "summary (throughput)" in saved

    def test_parallel_report_matches_serial(self, tmp_path):
        argv = ("figures", "--only", "figure-4", "--scale", "smoke")
        _, serial = run_cli(*argv)
        _, parallel = run_cli(*argv, "--workers", "2")
        assert parallel == serial

    def test_tables_entry_renders_table_report(self):
        code, text = run_cli("figures", "--only", "tables")
        assert code == 0
        assert "Table I" in text and "database_size" in text

    def test_unknown_id_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("figures", "--only", "figure-99")
        assert excinfo.value.code == 2
        assert "figure-99" in capsys.readouterr().err

    def test_bad_worker_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("figures", "--only", "figure-4", "--workers", "0")
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestSimulateCommand:
    def test_prints_all_metrics(self):
        code, text = run_cli(
            "simulate",
            "--database-size", "50",
            "--mpl", "8",
            "--completions", "60",
            "--policy", "commutativity",
        )
        assert code == 0
        for metric in ("throughput", "response_time", "blocking_ratio", "restart_ratio"):
            assert metric in text

    def test_adt_workload_and_unfair_flag(self):
        code, text = run_cli(
            "simulate",
            "--workload", "adt",
            "--database-size", "40",
            "--mpl", "6",
            "--completions", "40",
            "--pc", "2",
            "--pr", "8",
            "--unfair",
        )
        assert code == 0
        assert "throughput" in text

    def test_finite_resources(self):
        code, text = run_cli(
            "simulate",
            "--database-size", "50",
            "--mpl", "6",
            "--completions", "40",
            "--resource-units", "1",
        )
        assert code == 0
        assert "throughput" in text

    def test_json_output_is_machine_readable_and_deterministic(self):
        import json

        argv = (
            "simulate",
            "--database-size", "50",
            "--mpl", "8",
            "--completions", "60",
            "--seed", "4",
            "--json",
        )
        code, text = run_cli(*argv)
        assert code == 0
        payload = json.loads(text)
        assert payload["counters"]["completions"] == 60
        assert payload["params"]["seed"] == 4
        assert payload["sites"]["count"] == 1
        assert set(payload) == {
            "params", "workload", "metrics", "counters", "resources", "sites"
        }
        # Deterministic: the same invocation yields byte-identical JSON.
        _, again = run_cli(*argv)
        assert again == text

    def test_multi_site_run_with_scripted_failure(self):
        import json

        code, text = run_cli(
            "simulate",
            "--database-size", "50",
            "--mpl", "8",
            "--completions", "60",
            "--sites", "2",
            "--replication", "copies",
            "--fail-at", "0.5:1",
            "--recover-at", "1.5:1",
            "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["sites"]["count"] == 2
        assert payload["sites"]["replication"] == "copies"
        assert payload["sites"]["failures"] == 1
        assert payload["sites"]["recoveries"] == 1
        assert payload["counters"]["completions"] == 60

    def test_json_echoes_the_failure_schedule(self):
        """A JSON run is self-describing: the schedule that shaped its
        counters is echoed both in the params block and the sites block."""
        import json

        code, text = run_cli(
            "simulate",
            "--database-size", "50",
            "--mpl", "8",
            "--completions", "60",
            "--sites", "2",
            "--fail-at", "0.5:1",
            "--recover-at", "1.5:1",
            "--json",
        )
        assert code == 0
        payload = json.loads(text)
        expected = [[0.5, "fail", 1], [1.5, "recover", 1]]
        assert payload["sites"]["failure_schedule"] == expected
        assert payload["params"]["failure_schedule"] == expected

    def test_replication_protocol_flags(self):
        import json

        code, text = run_cli(
            "simulate",
            "--database-size", "50",
            "--mpl", "8",
            "--completions", "60",
            "--sites", "2",
            "--replication-protocol", "quorum",
            "--quorum-r", "1",
            "--quorum-w", "2",
            "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["sites"]["replication_protocol"] == "quorum"
        assert payload["params"]["replication_protocol"] == "quorum"
        assert payload["params"]["quorum_read"] == 1
        assert payload["counters"]["replication_messages"] > 0

    def test_broken_quorum_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("simulate", "--sites", "2",
                    "--replication-protocol", "quorum",
                    "--quorum-r", "1", "--quorum-w", "1")
        assert excinfo.value.code == 2
        assert "quorum" in capsys.readouterr().err

    def test_site_units_run(self):
        import json

        code, text = run_cli(
            "simulate",
            "--database-size", "50",
            "--mpl", "8",
            "--completions", "40",
            "--sites", "2",
            "--resource-placement", "per_site",
            "--site-units", "2,1",
            "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["params"]["site_units"] == [2, 1]
        assert payload["counters"]["resource_site0_cpu_served"] > 0

    @pytest.mark.parametrize("units", ["2", "2,1,1", "2,x"])
    def test_bad_site_units_exit_with_argparse_error(self, capsys, units):
        """Length mismatches and junk are a usage error, never a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            run_cli("simulate", "--sites", "2",
                    "--resource-placement", "per_site",
                    "--site-units", units)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--site-units" in captured.err
        assert "Traceback" not in captured.err

    def test_sites_default_replication_is_copies(self):
        import json

        code, text = run_cli(
            "simulate",
            "--database-size", "50",
            "--mpl", "6",
            "--completions", "40",
            "--sites", "2",
            "--json",
        )
        assert code == 0
        assert json.loads(text)["sites"]["replication"] == "copies"

    def test_malformed_fail_at_is_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--sites", "2", "--fail-at", "oops")

    @pytest.mark.parametrize("flag", ["--fail-at", "--recover-at"])
    @pytest.mark.parametrize("entry", [
        "oops",          # no TIME:SITE separator
        "1.5",           # missing the site
        "abc:1",         # unparsable time
        "1.5:def",       # unparsable site
        "1.5:1.5",       # fractional site
        "-2:1",          # negative time
        "1.5:2",         # site outside [0, sites)
        "1.5:-1",        # negative site
    ])
    def test_bad_site_events_exit_with_argparse_error(self, capsys, flag, entry):
        """Malformed TIME:SITE flags are a usage error, never a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            run_cli("simulate", "--sites", "2", flag, entry)
        assert excinfo.value.code == 2  # argparse usage-error exit code
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "Traceback" not in captured.err

    def test_bad_parameter_combinations_exit_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("simulate", "--msg-time", "-0.5")
        assert excinfo.value.code == 2
        assert "msg_time" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("--sites", "2", "--fail-at", "nan:1"),
        ("--msg-time", "nan"),
    ])
    def test_non_finite_times_exit_cleanly(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("simulate", *argv)
        assert excinfo.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_per_site_resources_and_msg_time(self):
        import json

        code, text = run_cli(
            "simulate",
            "--database-size", "50",
            "--mpl", "8",
            "--completions", "60",
            "--sites", "2",
            "--resource-units", "1",
            "--resource-placement", "per_site",
            "--msg-time", "0.001",
            "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["params"]["resource_placement"] == "per_site"
        assert payload["params"]["msg_time"] == 0.001
        assert payload["resources"]["site0_cpu_served"] > 0
        assert payload["resources"]["site1_cpu_served"] > 0
        assert payload["resources"]["messages_sent"] > 0
        assert payload["counters"]["resource_cpu_served"] > 0

    def test_json_surfaces_the_utilisation_summary(self):
        import json

        code, text = run_cli(
            "simulate",
            "--database-size", "50",
            "--mpl", "6",
            "--completions", "40",
            "--resource-units", "1",
            "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["resources"]["cpu_served"] > 0
        assert payload["resources"]["disk_served"] > 0
        assert payload["counters"]["resource_cpu_served"] == payload["resources"]["cpu_served"]

    def test_json_reports_infinite_resources(self):
        import json

        code, text = run_cli(
            "simulate",
            "--database-size", "50",
            "--mpl", "6",
            "--completions", "40",
            "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["resources"] == {"resources": "infinite"}
        assert "resource_cpu_served" not in payload["counters"]
