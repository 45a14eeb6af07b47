"""Every script under ``examples/`` runs to completion on the public API.

Each script is loaded as a module (not as ``__main__``) and its ``main()`` is
called with no command-line arguments, so ``simulation_study.py`` runs at its
smoke-scale default.  A constructor or name the examples use that the library
no longer offers fails here.  So does a ``python`` block of ``README.md``:
each runs as written, alone, in a fresh interpreter.
"""

import os
import pathlib
import re
import runpy
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


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


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 4


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block-{n}" for n in range(1, len(README_BLOCKS) + 1)])
def test_readme_python_block_runs_as_written(block):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                            env=env)
    assert result.returncode == 0, result.stderr
