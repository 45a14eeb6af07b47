"""Tests for the argument handling of tools/wedge_survey.py."""

import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "wedge_survey.py"
_spec = importlib.util.spec_from_file_location("wedge_survey", _TOOL)
wedge_survey = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wedge_survey)


@pytest.mark.parametrize(
    "text, seeds",
    [("7", [7]), ("401-404", [401, 402, 403, 404]), ("1,7,9-10", [1, 7, 9, 10]), ("3-3", [3])],
)
def test_parse_seeds(text, seeds):
    assert wedge_survey.parse_seeds(text) == seeds


def test_reversed_range_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        wedge_survey.main(["--seeds", "5-3"])
    assert excinfo.value.code == 2
    assert "5-3" in capsys.readouterr().err


def test_non_numeric_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        wedge_survey.main(["--seeds", "4-x"])
    assert excinfo.value.code == 2
    assert "4-x" in capsys.readouterr().err


def test_a_worker_count_below_one_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        wedge_survey.main(["--only", "figure-4-commit", "--workers", "-3"])
    assert excinfo.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_points_are_distinct_runs_in_registry_order():
    rows = [point[:4] for point in wedge_survey.points(["figure-4-commit"], range(401, 441))]
    # Two variants x three mpl levels x 40 seeds, the seed varying fastest.
    assert len(rows) == len(set(rows)) == 240
    assert rows[:2] == [
        ("figure-4-commit", "one-phase", 10, 401), ("figure-4-commit", "one-phase", 10, 402),
    ]
    # Figure 5 reads figure 4's runs: each is named once, under figure-4.
    shared = [point[0] for point in wedge_survey.points(["figure-4", "figure-5"], [1])]
    assert shared == ["figure-4"] * 10
