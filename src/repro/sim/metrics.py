"""Performance metrics of the simulation study (Section 5.4).

The paper evaluates each configuration with:

* **throughput** — transactions completed per simulated second (completions
  include pseudo-commits: the transaction is done from the user's viewpoint);
* **response time** — seconds from terminal submission to completion,
  including ready-queue time and time lost to restarts;
* **blocking ratio** — transaction blocks per completion;
* **restart ratio** — restarts per completion;
* **cycle-check ratio** — invocations of the cycle-detection algorithm per
  completion;
* **abort length** — average number of operations a transaction had executed
  when it was aborted.

:class:`MetricsCollector` accumulates the raw counters during the measurement
window (after the optional warm-up) and freezes them into a :class:`RunMetrics`
value at the end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..core.scheduler import SchedulerStatistics

__all__ = ["RunMetrics", "MetricsCollector"]


@dataclass(frozen=True)
class RunMetrics:
    """Frozen results of one simulation run (one parameter point, one seed)."""

    simulated_time: float
    completions: int
    commits: int
    pseudo_commits: int
    response_time_total: float
    blocks: int
    restarts: int
    cycle_checks: int
    aborts: int
    abort_length_total: int
    commit_dependency_edges: int
    events_processed: int
    #: The resource charger's utilisation summary at the end of the run
    #: (cpu/disk served and waits, per-site breakdowns, network messages),
    #: frozen as sorted pairs.  Counters only — deterministic ints; the
    #: infinite-resource marker string is dropped.
    resource_summary: Tuple[Tuple[str, int], ...] = ()
    #: The router's replication-protocol summary (protocol messages,
    #: failovers, catch-up events, read/write unavailability, cycle
    #: sweeps, the under-replication window), frozen as sorted pairs;
    #: empty for single-site runs.
    replication_summary: Tuple[Tuple[str, int], ...] = ()
    #: The router's commit-protocol summary (prepare rounds/messages/acks,
    #: certifications and their aborts, re-replication work, forced
    #: reports), frozen as sorted pairs; empty for single-site runs.
    commit_summary: Tuple[Tuple[str, int], ...] = ()

    # ------------------------------------------------------------------
    # The paper's derived metrics
    # ------------------------------------------------------------------
    @property
    def throughput(self) -> float:
        """Completed transactions per simulated second."""
        if self.simulated_time <= 0:
            return 0.0
        return self.completions / self.simulated_time

    @property
    def response_time(self) -> float:
        """Mean seconds from submission to completion."""
        if self.completions == 0:
            return 0.0
        return self.response_time_total / self.completions

    @property
    def blocking_ratio(self) -> float:
        """Blocks per completed transaction."""
        if self.completions == 0:
            return 0.0
        return self.blocks / self.completions

    @property
    def restart_ratio(self) -> float:
        """Restarts per completed transaction."""
        if self.completions == 0:
            return 0.0
        return self.restarts / self.completions

    @property
    def cycle_check_ratio(self) -> float:
        """Cycle-detection invocations per completed transaction."""
        if self.completions == 0:
            return 0.0
        return self.cycle_checks / self.completions

    @property
    def abort_length(self) -> float:
        """Average operations executed by a transaction at abort time."""
        if self.aborts == 0:
            return 0.0
        return self.abort_length_total / self.aborts

    def counters(self) -> Dict[str, int]:
        """The raw deterministic counters of the run.

        Everything here derives only from ``(parameters, seed)`` — no
        wall-clock, no host dependence.  This is the single source of truth
        for the CLI's ``--json`` counter block; add new counters here, not
        there.
        """
        counters = {
            "completions": self.completions,
            "commits": self.commits,
            "pseudo_commits": self.pseudo_commits,
            "blocks": self.blocks,
            "restarts": self.restarts,
            "cycle_checks": self.cycle_checks,
            "aborts": self.aborts,
            "abort_length_total": self.abort_length_total,
            "commit_dependency_edges": self.commit_dependency_edges,
            "events_processed": self.events_processed,
        }
        # Resource saturation rides along so the perf trajectory shows *why*
        # a configuration slowed down, not just that it did.  Finite runs
        # contribute cpu/disk served+waits (per site under per-site
        # placement); infinite runs contribute nothing.
        for name, value in self.resource_summary:
            counters[f"resource_{name}"] = value
        # Replication-protocol overhead (messages, failovers, catch-ups,
        # read/write unavailability) rides along the same way; single-site
        # runs contribute nothing, keeping their pinned counter sets closed.
        for name, value in self.replication_summary:
            counters[f"replication_{name}"] = value
        # Commit-protocol overhead (prepare traffic, certification,
        # re-replication) likewise; empty for single-site runs.
        for name, value in self.commit_summary:
            counters[f"commit_{name}"] = value
        return counters

    def as_dict(self) -> Dict[str, float]:
        """Flat mapping of every metric the reports print."""
        return {
            "throughput": self.throughput,
            "response_time": self.response_time,
            "blocking_ratio": self.blocking_ratio,
            "restart_ratio": self.restart_ratio,
            "cycle_check_ratio": self.cycle_check_ratio,
            "abort_length": self.abort_length,
            "completions": float(self.completions),
            "commits": float(self.commits),
            "pseudo_commits": float(self.pseudo_commits),
            "simulated_time": self.simulated_time,
        }


class MetricsCollector:
    """Mutable accumulator used by the simulator during a run."""

    def __init__(self) -> None:
        self.started_at: float = 0.0
        self.completions = 0
        self.commits = 0
        self.pseudo_commits = 0
        self.response_time_total = 0.0
        self.restarts = 0
        # Scheduler-side and resource counters are snapshotted at the start
        # of the measurement window and subtracted at the end.
        self._scheduler_snapshot: Dict[str, int] = {}
        self._resource_snapshot: Dict[str, int] = {}
        self._replication_snapshot: Dict[str, int] = {}
        self._commit_snapshot: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def begin_measurement(
        self,
        now: float,
        scheduler_stats: SchedulerStatistics,
        resource_summary: Optional[Mapping[str, object]] = None,
        replication_summary: Optional[Mapping[str, int]] = None,
        commit_summary: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Start (or restart) the measurement window at simulated time ``now``."""
        self.started_at = now
        self.completions = 0
        self.commits = 0
        self.pseudo_commits = 0
        self.response_time_total = 0.0
        self.restarts = 0
        # Like the scheduler counters, resource utilisation and replication
        # overhead accumulated before the window (warm-up) are snapshotted
        # and subtracted at freeze time, so both are reported per measured
        # work.
        self._resource_snapshot = {
            name: value
            for name, value in (resource_summary or {}).items()
            if isinstance(value, int)
        }
        self._replication_snapshot = dict(replication_summary or {})
        self._commit_snapshot = dict(commit_summary or {})
        # Snapshot *every* scheduler counter, not just the ones freeze()
        # subtracts today, so adding a counter to the window later cannot
        # silently measure warm-up work.
        self._scheduler_snapshot = scheduler_stats.as_dict()

    def record_completion(self, response_time: float, pseudo: bool) -> None:
        """Record one user-visible completion."""
        self.completions += 1
        self.response_time_total += response_time
        if pseudo:
            self.pseudo_commits += 1
        else:
            self.commits += 1

    def record_restart(self) -> None:
        """Record one restart (a scheduler abort followed by re-submission)."""
        self.restarts += 1

    # ------------------------------------------------------------------
    def freeze(
        self,
        now: float,
        scheduler_stats: SchedulerStatistics,
        events_processed: int,
        resource_summary: Optional[Mapping[str, object]] = None,
        replication_summary: Optional[Mapping[str, int]] = None,
        commit_summary: Optional[Mapping[str, int]] = None,
    ) -> RunMetrics:
        """Produce the immutable :class:`RunMetrics` for the window."""
        snapshot = self._scheduler_snapshot or {
            "blocks": 0,
            "cycle_checks": 0,
            "aborts": 0,
            "abort_length_total": 0,
            "commit_dependency_edges": 0,
        }
        return RunMetrics(
            simulated_time=max(now - self.started_at, 0.0),
            completions=self.completions,
            commits=self.commits,
            pseudo_commits=self.pseudo_commits,
            response_time_total=self.response_time_total,
            blocks=scheduler_stats.blocks - snapshot["blocks"],
            restarts=self.restarts,
            cycle_checks=scheduler_stats.cycle_checks - snapshot["cycle_checks"],
            aborts=scheduler_stats.aborts - snapshot["aborts"],
            abort_length_total=scheduler_stats.abort_length_total
            - snapshot["abort_length_total"],
            commit_dependency_edges=scheduler_stats.commit_dependency_edges
            - snapshot["commit_dependency_edges"],
            events_processed=events_processed,
            resource_summary=tuple(
                sorted(
                    (name, value - self._resource_snapshot.get(name, 0))
                    for name, value in (resource_summary or {}).items()
                    if isinstance(value, int)
                )
            ),
            replication_summary=tuple(
                sorted(
                    (name, value - self._replication_snapshot.get(name, 0))
                    for name, value in (replication_summary or {}).items()
                )
            ),
            commit_summary=tuple(
                sorted(
                    (name, value - self._commit_snapshot.get(name, 0))
                    for name, value in (commit_summary or {}).items()
                )
            ),
        )
