"""Every script under ``examples/`` runs to completion on the public API.

Each script is loaded as a module (not as ``__main__``) and its ``main()`` is
called with no command-line arguments, so ``simulation_study.py`` runs at its
smoke-scale default.  A constructor or name the examples use that the library
no longer offers fails here.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert {path.name for path in EXAMPLES} >= {
        "banking_accounts.py", "order_processing.py", "quickstart.py", "simulation_study.py",
    }


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_main_runs_cleanly(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path)])
    namespace = runpy.run_path(str(path))
    assert namespace["main"]() is None
    assert capsys.readouterr().out
