"""Shared infrastructure for the benchmark harness.

``test_figures.py`` runs every parameter-sweep experiment of the central
registry (``repro.analysis.registry``) once: it prints the paper-style series
and summary to stdout, saves them under ``benchmarks/results/``, and requires
the registry entry's shape check to find no failed expectation.  The checks
live on the entries, beside the builders, so ``repro figures`` reports the
same verdict.

The amount of simulated work per point is controlled by the environment
variable ``REPRO_BENCH_SCALE``:

* ``smoke`` — a few seconds for the whole suite (used in CI sanity runs);
* ``bench`` — the default; the full mpl sweep at a reduced run length;
* ``paper`` — the paper's own scale (50 000 completions per point, 10 runs);
  expect hours.

``REPRO_BENCH_WORKERS`` (default 1) fans each experiment's points out over
that many worker processes via the parallel runner; every worker count
produces byte-identical results, so the shape checks and the saved reports
never depend on it.
"""

import os
import pathlib
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.analysis import (  # noqa: E402  (path bootstrap above)
    BENCH_SCALE,
    PAPER_SCALE,
    SMOKE_SCALE,
)

_SCALES = {"smoke": SMOKE_SCALE, "bench": BENCH_SCALE, "paper": PAPER_SCALE}

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale():
    """The reproduction scale selected for this benchmark session."""
    name = os.environ.get("REPRO_BENCH_SCALE", "bench").lower()
    if name not in _SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE={name!r} is not one of {sorted(_SCALES)}"
        )
    return _SCALES[name]


@pytest.fixture(scope="session")
def workers():
    """Worker-process count selected for this benchmark session."""
    text = os.environ.get("REPRO_BENCH_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        raise ValueError(f"REPRO_BENCH_WORKERS={text!r} is not an integer")
    if workers < 1:
        raise ValueError(f"REPRO_BENCH_WORKERS={text!r} must be >= 1")
    return workers


@pytest.fixture(scope="session")
def save_report():
    """Write one rendered report as ``benchmarks/results/<name>.txt``.

    Registry experiments save under their registry id verbatim
    (``figure-4.txt``, ``ablation-pseudo-commit-slot.txt``); the tables
    benchmark saves one report per data type as ``tables_<type>.txt``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name, text):
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _save
