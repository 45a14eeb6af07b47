"""Figure 17: throughput, ADT model, 5 resource units, Pc=4.

Regenerates the figure's series at the selected reproduction scale and checks
the qualitative shape the paper reports.  See ``benchmarks/conftest.py`` for
the scale knob, ``benchmarks/results/figure-17.txt`` for the measured report
and the registry entry's ``paper_claim`` for what the paper reports.
"""

from .conftest import assert_shape_pr_ordering


def test_figure_17(run_figure):
    result = run_figure("figure-17")
    assert_shape_pr_ordering(result, min_gain=0.05)
