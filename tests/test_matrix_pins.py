"""Pin the outcomes of the seven benchmark workloads at their smoke size.

Each row of ``benchmarks/perf/workloads.py`` runs once, shrunk to its
``--quick`` size, at seed 1.  Its checks must pass, and its digest (crc32
over every simulated statistic) and event count must equal the constants
below.  A change that moves either changed what the simulator does; a
deliberate one updates the constants and says why.  The module is imported
as the benchmark harness imports it and is never modified here.
"""

import pathlib
import sys

import pytest

_PERF = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
if str(_PERF) not in sys.path:
    sys.path.insert(0, str(_PERF))

import workloads  # noqa: E402  (benchmark module, path set above)

SEED = 1

#: workload -> (outcome digest, events processed) at ``SEED``, shrunk.
PINS = {
    "rw-lowconf": (624282200, 3755),
    "rw-hot": (721312207, 5550),
    "rw-2pl": (3154197154, 5964),
    "adt-central": (3165828061, 4161),
    "ac4-persite": (2411665542, 13243),
    "q3-2pc-crash": (3483346447, 7793),
    "figures-sweep": (3768451708, 6045),
}


def test_every_workload_is_pinned():
    assert list(PINS) == list(workloads.make_workloads())


@pytest.mark.parametrize("name", list(PINS))
def test_workload_outcome_is_pinned(name):
    workload = workloads.make_workloads()[name]
    workload.shrink()
    outcome = workload.outcome(workload.run(workload.setup(SEED)))
    assert outcome.failures == []
    assert (outcome.digest, outcome.counters["events_processed"]) == PINS[name]
