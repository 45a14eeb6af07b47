"""Figure 11: throughput with 1 resource unit, read/write model.

Regenerates the figure's series at the selected reproduction scale and checks
the qualitative shape the paper reports.  See ``benchmarks/conftest.py`` for
the scale knob, ``benchmarks/results/figure-11.txt`` for the measured report
and the registry entry's ``paper_claim`` for what the paper reports.
"""



def test_figure_11(run_figure):
    result = run_figure("figure-11")
    _, commutativity_peak = result.peak("commutativity")
    _, recoverability_peak = result.peak("recoverability")
    # Transactions queue for hardware, not data: the two policies are close.
    assert recoverability_peak >= commutativity_peak * 0.90
