"""Figure 8: throughput without fair scheduling, read/write model, infinite resources.

Regenerates the figure's series at the selected reproduction scale and checks
the qualitative shape the paper reports.  See ``benchmarks/conftest.py`` for
the scale knob, ``benchmarks/results/figure-8.txt`` for the measured report
and the registry entry's ``paper_claim`` for what the paper reports.
"""

from .conftest import assert_shape_recoverability_wins


def test_figure_8(run_figure):
    result = run_figure("figure-8")
    assert_shape_recoverability_wins(result, min_gain=0.10)
