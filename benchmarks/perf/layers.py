"""Per-layer attribution: a cProfile trace grouped by ``repro`` module.

The tracer lives here, in the harness: ``repro`` has no spans of its own
yet, so the layer boundaries are the source files.  ``profile_layers`` turns
a finished ``cProfile.Profile`` into plain numbers per layer; because it
uses ``tottime`` (children excluded), the layers' ``self_s`` add up to the
traced total.  ``layer_metrics`` then joins those with the run's
deterministic counters into the flat ``per_layer`` metric set declared in
``BENCHMARK.json``.
"""

from __future__ import annotations

import pstats
from typing import Any, Dict, Mapping, Tuple

LAYERS = (
    "engine",
    "simulator",
    "workload",
    "metrics",
    "resources",
    "scheduler",
    "backends",
    "object_manager",
    "dependency_graph",
    "router",
    "cycles",
    "replication",
    "commit",
    "analysis",
)
OTHER = "other"

_FILE_LAYER = {
    "sim/engine.py": "engine",
    "sim/workload.py": "workload",
    "sim/random_source.py": "workload",
    "sim/metrics.py": "metrics",
    "sim/resources.py": "resources",
    "core/backends.py": "backends",
    "core/object_manager.py": "object_manager",
    "core/compatibility.py": "object_manager",
    "core/specification.py": "object_manager",
    "core/dependency_graph.py": "dependency_graph",
    "distributed/cycles.py": "cycles",
    "distributed/replication.py": "replication",
    "distributed/commit.py": "commit",
}
#: Every other file of a package lands in the package's widest layer, so a
#: later file split cannot silently empty a layer into ``other``.
_PACKAGE_LAYER = {
    "sim": "simulator",
    "core": "scheduler",
    "distributed": "router",
    "adts": "object_manager",
    "analysis": "analysis",
}

#: Per-layer metrics that measure the host, not the simulation: everything
#: else must repeat exactly for one (source, seed, python minor version).
_HOST_METRICS = frozenset({"engine.events_per_s", "trace.overhead_x", "trace.other_share"})

Function = Tuple[str, int, str]


def is_deterministic(metric: str) -> bool:
    return not (metric.endswith((".self_s", ".self_share")) or metric in _HOST_METRICS)


def layer_of(function: Function) -> str:
    """The layer a profiled Python function belongs to (``other`` outside ``repro``)."""
    path = function[0].replace("\\", "/")
    index = path.rfind("/repro/")
    if index < 0:
        return OTHER
    relative = path[index + len("/repro/"):]
    return _FILE_LAYER.get(relative) or _PACKAGE_LAYER.get(relative.split("/", 1)[0], OTHER)


def _is_builtin(function: Function) -> bool:
    return function[0] == "~"


def profile_layers(profile: Any) -> Dict[str, Any]:
    """Reduce a finished profile to ``{layer: {self_s, calls, entry_calls}}``.

    A C builtin has no source file; its time and calls go to the layer of
    each caller, which the profile's callers table records separately.
    """
    stats = pstats.Stats(profile)
    layers = {name: {"self_s": 0.0, "calls": 0, "entry_calls": 0} for name in LAYERS + (OTHER,)}
    for function, (_, calls, self_s, _, callers) in stats.stats.items():  # type: ignore[attr-defined]
        if _is_builtin(function):
            for caller, (caller_calls, _, caller_self_s, _) in callers.items():
                row = layers[layer_of(caller)]
                row["self_s"] += caller_self_s
                row["calls"] += caller_calls
                calls -= caller_calls
                self_s -= caller_self_s
            # Whatever no recorded caller accounts for (the traced call itself).
            layers[OTHER]["self_s"] += self_s
            layers[OTHER]["calls"] += calls
            continue
        layer = layer_of(function)
        row = layers[layer]
        row["self_s"] += self_s
        row["calls"] += calls
        # An entry is a call from another layer; a callback made by a
        # builtin (a sort key, a heap comparison) stays inside its layer.
        row["entry_calls"] += calls - sum(
            caller_calls
            for caller, (caller_calls, _, _, _) in callers.items()
            if _is_builtin(caller) or layer_of(caller) == layer
        )
    return {
        "layers": layers,
        "total_calls": int(stats.total_calls),  # type: ignore[attr-defined]
        "total_s": float(stats.total_tt),  # type: ignore[attr-defined]
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    trace: Mapping[str, Any],
    outcome: Mapping[str, Any],
    traced_s: float,
    untraced_s: float,
) -> Dict[str, float]:
    """The flat per-layer metric set of one workload.

    ``trace`` is ``profile_layers`` output, ``outcome`` the traced repeat's
    counters and simulated totals, ``traced_s`` / ``untraced_s`` the host
    seconds of the traced repeat and the untraced median.  Counters a
    workload does not have (``replication_*`` on one site) read 0.
    """
    counters = outcome["counters"]

    def counter(name: str) -> int:
        return counters.get(name, 0)

    transactions = outcome["transactions"]
    completions = counter("completions")
    events = counter("events_processed")
    total_s = trace["total_s"]
    metrics: Dict[str, float] = {}
    for name in LAYERS:
        row = trace["layers"][name]
        metrics[f"{name}.self_s"] = row["self_s"]
        metrics[f"{name}.self_share"] = _ratio(row["self_s"], total_s)
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.entry_calls"] = row["entry_calls"]
    served = counter("resource_cpu_served") + counter("resource_disk_served")
    waits = counter("resource_cpu_waits") + counter("resource_disk_waits")
    metrics.update(
        {
            "engine.events": events,
            "engine.events_per_txn": _ratio(events, transactions),
            "engine.events_per_s": _ratio(events, untraced_s),
            "simulator.restarts_per_txn": _ratio(counter("restarts"), completions),
            "scheduler.blocks_per_txn": _ratio(counter("blocks"), completions),
            "scheduler.aborts": counter("aborts"),
            "scheduler.pseudo_commit_share": _ratio(counter("pseudo_commits"), completions),
            "dependency_graph.cycle_checks_per_txn": _ratio(counter("cycle_checks"), completions),
            "dependency_graph.commit_dependency_edges": counter("commit_dependency_edges"),
            "resources.cpu_served": counter("resource_cpu_served"),
            "resources.cpu_waits": counter("resource_cpu_waits"),
            "resources.disk_served": counter("resource_disk_served"),
            "resources.disk_waits": counter("resource_disk_waits"),
            "resources.wait_share": _ratio(waits, served),
            "resources.messages_sent": counter("resource_messages_sent"),
            "replication.messages": counter("replication_messages"),
            "replication.catchups": counter("replication_catchups"),
            "replication.site_failure_aborts": counter("replication_site_failure_aborts"),
            "replication.read_unavailable_aborts": counter(
                "replication_read_unavailable_aborts"
            ),
            "replication.under_replicated_window": counter(
                "replication_under_replicated_window"
            ),
            "cycles.sweeps": counter("replication_cycle_sweeps"),
            "commit.prepare_rounds": counter("commit_prepare_rounds"),
            "commit.certifications": counter("commit_certifications"),
            "commit.certification_aborts": counter("commit_certification_aborts"),
            "commit.re_replications": counter("commit_re_replications"),
            "commit.forced_reports": counter("commit_forced_reports"),
            "metrics.sim_throughput": _ratio(completions, outcome["simulated_time"]),
            "metrics.sim_response_time": _ratio(outcome["response_time_total"], completions),
            "metrics.counters_crc32": outcome["digest"],
            "trace.total_calls": trace["total_calls"],
            "trace.calls_per_event": _ratio(trace["total_calls"], events),
            "trace.calls_per_txn": _ratio(trace["total_calls"], transactions),
            "trace.overhead_x": _ratio(traced_s, untraced_s),
            "trace.other_share": _ratio(trace["layers"][OTHER]["self_s"], total_s),
        }
    )
    return metrics
