"""Figure 12: conflict ratios with 5 resource units, read/write model.

Regenerates the figure's series at the selected reproduction scale and checks
the qualitative shape the paper reports.  See ``benchmarks/conftest.py`` for
the scale knob, ``benchmarks/results/figure-12.txt`` for the measured report
and the registry entry's ``paper_claim`` for what the paper reports.
"""



def test_figure_12(run_figure):
    result = run_figure("figure-12")
    commutativity = dict(result.series("commutativity", "blocking_ratio"))
    recoverability = dict(result.series("recoverability", "blocking_ratio"))
    top = max(commutativity)
    assert recoverability[top] <= commutativity[top]
