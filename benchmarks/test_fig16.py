"""Figure 16: conflict ratios, ADT model, infinite resources, Pc=4.

Regenerates the figure's series at the selected reproduction scale and checks
the qualitative shape the paper reports.  See ``benchmarks/conftest.py`` for
the scale knob, ``benchmarks/results/figure-16.txt`` for the measured report
and the registry entry's ``paper_claim`` for what the paper reports.
"""



def test_figure_16(run_figure):
    result = run_figure("figure-16")
    low_pr = dict(result.series("Pc=4,Pr=0", "blocking_ratio"))
    high_pr = dict(result.series("Pc=4,Pr=8", "blocking_ratio"))
    top = max(low_pr)
    assert high_pr[top] <= low_pr[top]
