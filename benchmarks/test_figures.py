"""Every parameter-sweep experiment of the registry, run once and shape-checked.

The experiments selected in the session run as one batch (see ``conftest.py``
for the scale and the worker count), so a simulation that several figures
read runs once.  Each case prints its experiment's report, saves it as
``benchmarks/results/<experiment id>.txt`` and requires the registry entry's
check to find no failed expectation.  What the paper reports for a figure is
the entry's ``paper_claim``.
"""

import pytest

from repro.analysis import EXPERIMENT_REGISTRY, render_result, run_experiments


@pytest.fixture(scope="module")
def results(request, scale, workers):
    """The results of the session's selected cases of this module, by id."""
    selected = [
        item.callspec.params["experiment_id"]
        for item in request.session.items
        if item.module is request.module
    ]
    specs = [EXPERIMENT_REGISTRY.spec(experiment_id, scale) for experiment_id in selected]
    return dict(zip(selected, run_experiments(specs, workers=workers)))


@pytest.mark.parametrize("experiment_id", EXPERIMENT_REGISTRY.ids(), ids=str)
def test_figure(results, save_report, experiment_id):
    result = results[experiment_id]
    report = render_result(result)
    print()
    print(report)
    save_report(experiment_id, report)
    assert EXPERIMENT_REGISTRY.entry(experiment_id).check(result) == []
