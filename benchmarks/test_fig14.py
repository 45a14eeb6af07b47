"""Figure 14: throughput, ADT model, infinite resources, Pc=4, Pr in {0,4,8}.

Regenerates the figure's series at the selected reproduction scale and checks
the qualitative shape the paper reports.  See ``benchmarks/conftest.py`` for
the scale knob, ``benchmarks/results/figure-14.txt`` for the measured report
and the registry entry's ``paper_claim`` for what the paper reports.
"""

from .conftest import assert_shape_pr_ordering


def test_figure_14(run_figure):
    result = run_figure("figure-14")
    assert_shape_pr_ordering(result, min_gain=0.20)
