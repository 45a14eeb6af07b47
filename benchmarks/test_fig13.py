"""Figure 13: cycle-check ratio and abort length with 5 resource units, read/write model.

Regenerates the figure's series at the selected reproduction scale and checks
the qualitative shape the paper reports.  See ``benchmarks/conftest.py`` for
the scale knob, ``benchmarks/results/figure-13.txt`` for the measured report
and the registry entry's ``paper_claim`` for what the paper reports.
"""



def test_figure_13(run_figure):
    result = run_figure("figure-13")
    recoverability = dict(result.series("recoverability", "cycle_check_ratio"))
    assert all(value >= 0 for value in recoverability.values())
    assert max(recoverability.values()) > 0
