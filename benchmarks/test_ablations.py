"""Ablation benchmarks for design choices of the reproduction.

These are not figures from the paper; they isolate individual design decisions
of the reproduction (the registry sweeps save their reports as
``benchmarks/results/ablation-<name>.txt``):

* **scheduler overhead** — raw operations/second of the scheduler itself (no
  simulation), commutativity vs recoverability, measuring the cost of the
  extra commit-dependency bookkeeping the paper argues is small;
* **pseudo-commit slot policy** and **write probability** — registry
  experiments (``repro.analysis.ablations``) run through the same
  ``run_figure`` harness as the figures; the specs live with the other
  experiment definitions and the modules here only assert the shapes.
"""

import pytest

from repro.core.policy import ConflictPolicy
from repro.core.scheduler import Scheduler
from repro.adts import StackType


# ----------------------------------------------------------------------
# Scheduler overhead (pure CC layer, no simulation — not a registry sweep)
# ----------------------------------------------------------------------
def _scheduler_burst(policy, transactions=50, pushes=4):
    scheduler = Scheduler(policy=policy, record_history=False, retain_terminated=False)
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


# ----------------------------------------------------------------------
# Pseudo-commit slot policy (registry experiment)
# ----------------------------------------------------------------------
def test_ablation_pseudo_commit_slot(run_figure):
    result = run_figure("ablation-pseudo-commit-slot")
    for label in ("holds-slot", "releases-slot"):
        (_, peak) = result.peak(label)
        assert peak > 0


# ----------------------------------------------------------------------
# Write-probability sweep (registry experiment)
# ----------------------------------------------------------------------
def test_ablation_write_probability(run_figure):
    result = run_figure("ablation-write-probability")
    improvements = {}
    for probability in (0.1, 0.5):
        improvements[probability] = result.improvement(
            better=f"Pw={probability}/recoverability",
            baseline=f"Pw={probability}/commutativity",
            mpl=100,
        )
    # More writes means more non-commuting pairs, which is exactly where
    # recoverability helps: the gain at 0.5 should not be smaller than at 0.1.
    assert improvements[0.5] >= improvements[0.1] - 0.05
