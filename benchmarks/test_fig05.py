"""Figure 5: response time vs mpl, read/write model, infinite resources.

Regenerates the figure's series at the selected reproduction scale and checks
the qualitative shape the paper reports.  See ``benchmarks/conftest.py`` for
the scale knob, ``benchmarks/results/figure-5.txt`` for the measured report
and the registry entry's ``paper_claim`` for what the paper reports.
"""



def test_figure_5(run_figure):
    result = run_figure("figure-5")
    commutativity = dict(result.series("commutativity", "response_time"))
    recoverability = dict(result.series("recoverability", "response_time"))
    top = max(commutativity)
    # Under heavy data contention the recoverability scheduler answers sooner.
    assert recoverability[top] <= commutativity[top]
    assert all(value > 0 for value in recoverability.values())
