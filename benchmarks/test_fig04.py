"""Figure 4: throughput vs mpl, read/write model, infinite resources.

Regenerates the figure's series at the selected reproduction scale and checks
the qualitative shape the paper reports.  See ``benchmarks/conftest.py`` for
the scale knob, ``benchmarks/results/figure-4.txt`` for the measured report
and the registry entry's ``paper_claim`` for what the paper reports.
"""

from .conftest import assert_shape_recoverability_wins


def test_figure_4(run_figure):
    result = run_figure("figure-4")
    assert_shape_recoverability_wins(result, min_gain=0.20)
    # Commutativity should lose a large part of its peak at the highest mpl
    # (thrashing) while recoverability degrades more gracefully.
    commutativity = dict(result.series("commutativity", "throughput"))
    recoverability = dict(result.series("recoverability", "throughput"))
    top = max(commutativity)
    assert recoverability[top] >= commutativity[top]
