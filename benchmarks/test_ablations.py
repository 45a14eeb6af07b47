"""Scheduler-overhead ablation: raw operations/second of the scheduler itself.

Not a figure of the paper and not a parameter sweep: no simulation runs, and
each policy's scheduler takes the same burst of stack pushes, measuring the
cost of the extra commit-dependency bookkeeping the paper argues is small.
The two ablation sweeps (pseudo-commit slot policy, write probability) are
registry experiments (``repro.analysis.ablations``) and run, with their shape
checks, in ``test_figures.py``.
"""

import pytest

from repro.core.policy import ConflictPolicy
from repro.core.scheduler import Scheduler
from repro.adts import StackType


def _scheduler_burst(policy, transactions=50, pushes=4):
    scheduler = Scheduler(policy=policy, retain_terminated=False)
    scheduler.register_object("S", StackType())
    for _ in range(transactions):
        transaction = scheduler.begin()
        for element in range(pushes):
            scheduler.perform(transaction.tid, "S", "push", element)
        scheduler.commit(transaction.tid)
    return scheduler.stats


@pytest.mark.parametrize("policy", list(ConflictPolicy), ids=lambda p: p.value)
def test_ablation_scheduler_overhead(benchmark, policy):
    stats = benchmark(_scheduler_burst, policy)
    assert stats.operations_executed == 50 * 4
