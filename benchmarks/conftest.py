"""Shared infrastructure for the benchmark harness.

Every figure of the paper's evaluation has one benchmark module that

1. runs the corresponding experiment (``repro.analysis.figures``) once,
2. prints the paper-style series and summary to stdout and saves them under
   ``benchmarks/results/``, and
3. asserts the qualitative *shape* the paper reports (who wins, roughly by how
   much, where thrashing sets in) — absolute numbers are not compared because
   the substrate is a simulator, not the authors' testbed.

The amount of simulated work per point is controlled by the environment
variable ``REPRO_BENCH_SCALE``:

* ``smoke`` — a few seconds for the whole suite (used in CI sanity runs);
* ``bench`` — the default; the full mpl sweep at a reduced run length;
* ``paper`` — the paper's own scale (50 000 completions per point, 10 runs);
  expect hours.

``REPRO_BENCH_WORKERS`` (default 1) fans each experiment's points out over
that many worker processes via the parallel runner; every worker count
produces byte-identical results, so the shape assertions and the saved
reports never depend on it.

The benchmark modules themselves are thin wrappers: each one asks the
central experiment registry (``repro.analysis.registry``) for its spec and
asserts the qualitative shape.
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
    EXPERIMENT_REGISTRY,
    PAPER_SCALE,
    SMOKE_SCALE,
    render_result,
    run_experiment,
)

_SCALES = {"smoke": SMOKE_SCALE, "bench": BENCH_SCALE, "paper": PAPER_SCALE}

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _selected_scale():
    name = os.environ.get("REPRO_BENCH_SCALE", "bench").lower()
    if name not in _SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE={name!r} is not one of {sorted(_SCALES)}"
        )
    return _SCALES[name]


def _selected_workers():
    text = os.environ.get("REPRO_BENCH_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        raise ValueError(f"REPRO_BENCH_WORKERS={text!r} is not an integer")
    if workers < 1:
        raise ValueError(f"REPRO_BENCH_WORKERS={text!r} must be >= 1")
    return workers


@pytest.fixture(scope="session")
def scale():
    """The reproduction scale selected for this benchmark session."""
    return _selected_scale()


def result_filename(name: str) -> str:
    """Canonical ``benchmarks/results`` filename for a saved report.

    This is the one place result filenames are formed.  Registry experiments
    save under their registry id verbatim (``figure-4.txt``,
    ``ablation-pseudo-commit-slot.txt``); the tables benchmark saves one
    report per data type as ``tables_<type>.txt``.
    """
    return f"{name}.txt"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_report(results_dir):
    """Write one rendered report under its canonical results filename."""

    def _save(name, text):
        (results_dir / result_filename(name)).write_text(text + "\n")

    return _save


@pytest.fixture(scope="session")
def workers():
    """Worker-process count selected for this benchmark session."""
    return _selected_workers()


@pytest.fixture
def run_figure(benchmark, scale, workers, save_report):
    """Run one registry experiment under pytest-benchmark and report it.

    Returns the :class:`~repro.analysis.experiments.ExperimentResult` so the
    calling module can assert the expected qualitative shape.  Despite the
    name it runs any registry experiment with a spec builder (figures and
    ablations alike).
    """

    def _run(experiment_id):
        spec = EXPERIMENT_REGISTRY.spec(experiment_id, scale)
        result = benchmark.pedantic(
            lambda: run_experiment(spec, workers=workers),
            rounds=1, iterations=1, warmup_rounds=0,
        )
        report = render_result(result)
        print()
        print(report)
        save_report(experiment_id, report)
        return result

    return _run


def assert_shape_recoverability_wins(result, min_gain=0.05):
    """Common read/write-model shape: recoverability's peak throughput beats
    the commutativity baseline's peak by at least ``min_gain``."""
    _, commutativity_peak = result.peak("commutativity")
    _, recoverability_peak = result.peak("recoverability")
    assert recoverability_peak > 0 and commutativity_peak > 0
    assert recoverability_peak >= commutativity_peak * (1.0 + min_gain)


def assert_shape_pr_ordering(result, min_gain=0.05):
    """Common ADT-model shape: more recoverable entries => higher peak."""
    peaks = {label: result.peak(label)[1] for label in result.variant_labels()}
    labels = sorted(peaks, key=lambda label: int(label.split("Pr=")[1]))
    lowest, highest = peaks[labels[0]], peaks[labels[-1]]
    assert highest >= lowest * (1.0 + min_gain)
