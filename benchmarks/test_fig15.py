"""Figure 15: throughput, ADT model, infinite resources, Pc=2, Pr in {0,4,8}.

Regenerates the figure's series at the selected reproduction scale and checks
the qualitative shape the paper reports.  See ``benchmarks/conftest.py`` for
the scale knob, ``benchmarks/results/figure-15.txt`` for the measured report
and the registry entry's ``paper_claim`` for what the paper reports.
"""

from .conftest import assert_shape_pr_ordering


def test_figure_15(run_figure):
    result = run_figure("figure-15")
    # The paper's "about double" holds at paper scale; at the bench scale's
    # 400 completions the Pr=8 margin is still warming up (the same stream
    # measures +22% at 400 completions and +41% at 800+), so the guard only
    # pins the direction and a conservative floor.
    assert_shape_pr_ordering(result, min_gain=0.10)
