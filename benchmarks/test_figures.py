"""Every parameter-sweep experiment of the registry, run once and shape-checked.

Each case regenerates one experiment's series at the selected reproduction
scale (see ``conftest.py``), prints the report, saves it as
``benchmarks/results/<experiment id>.txt`` and requires the registry entry's
check to find no failed expectation.  What the paper reports for a figure is
the entry's ``paper_claim``.
"""

import pytest

from repro.analysis import EXPERIMENT_REGISTRY, render_result, run_experiment


@pytest.mark.parametrize("experiment_id", EXPERIMENT_REGISTRY.runnable_ids(), ids=str)
def test_figure(benchmark, scale, workers, save_report, experiment_id):
    spec = EXPERIMENT_REGISTRY.spec(experiment_id, scale)
    result = benchmark.pedantic(
        lambda: run_experiment(spec, workers=workers),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    report = render_result(result)
    print()
    print(report)
    save_report(experiment_id, report)
    assert EXPERIMENT_REGISTRY.entry(experiment_id).check(result) == []
