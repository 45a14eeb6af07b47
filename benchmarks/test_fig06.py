"""Figure 6: blocking and restart ratios, read/write model, infinite resources.

Regenerates the figure's series at the selected reproduction scale and checks
the qualitative shape the paper reports.  See ``benchmarks/conftest.py`` for
the scale knob, ``benchmarks/results/figure-6.txt`` for the measured report
and the registry entry's ``paper_claim`` for what the paper reports.
"""



def test_figure_6(run_figure):
    result = run_figure("figure-6")
    commutativity = dict(result.series("commutativity", "blocking_ratio"))
    recoverability = dict(result.series("recoverability", "blocking_ratio"))
    top = max(commutativity)
    assert recoverability[top] <= commutativity[top]
    restarts = dict(result.series("recoverability", "restart_ratio"))
    assert all(value >= 0 for value in restarts.values())
