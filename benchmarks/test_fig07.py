"""Figure 7: cycle-check ratio and abort length, read/write model, infinite resources.

Regenerates the figure's series at the selected reproduction scale and checks
the qualitative shape the paper reports.  See ``benchmarks/conftest.py`` for
the scale knob, ``benchmarks/results/figure-7.txt`` for the measured report
and the registry entry's ``paper_claim`` for what the paper reports.
"""



def test_figure_7(run_figure):
    result = run_figure("figure-7")
    recoverability = dict(result.series("recoverability", "cycle_check_ratio"))
    commutativity = dict(result.series("commutativity", "cycle_check_ratio"))
    top = max(recoverability)
    # Cycle checks happen on every block and on every recoverable execute, so
    # the ratio is strictly positive under contention for both policies.
    assert recoverability[top] > 0
    assert commutativity[top] > 0
    abort_lengths = dict(result.series("recoverability", "abort_length"))
    assert all(value >= 0 for value in abort_lengths.values())
