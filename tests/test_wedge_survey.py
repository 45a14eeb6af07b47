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
