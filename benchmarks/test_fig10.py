"""Figure 10: throughput with 5 resource units, read/write model.

Regenerates the figure's series at the selected reproduction scale and checks
the qualitative shape the paper reports.  See ``benchmarks/conftest.py`` for
the scale knob, ``benchmarks/results/figure-10.txt`` for the measured report
and the registry entry's ``paper_claim`` for what the paper reports.
"""



def test_figure_10(run_figure):
    result = run_figure("figure-10")
    _, commutativity_peak = result.peak("commutativity")
    _, recoverability_peak = result.peak("recoverability")
    # Resource contention shrinks the advantage (the paper reports ~15%), but
    # recoverability must not lose at the peak.
    assert recoverability_peak >= commutativity_peak * 0.98
