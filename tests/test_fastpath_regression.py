"""Regression tests pinning the hot-path caches to naive reference code.

Two structures got fast paths for the figure benchmarks:

* :meth:`repro.core.dependency_graph.DependencyGraph.creates_cycle` keeps a
  Pearce–Kelly topological order, so most targets are answered without a walk;
* :meth:`repro.core.object_manager.ObjectManager.classify_request` classifies
  against per-(operation, parameter) groups with compiled per-policy tables
  instead of walking the full uncommitted log.

These tests replay seeded random workloads and compare every answer against
a from-scratch naive implementation, so a stale cache or a broken index shows
up as a direct mismatch.
"""

import random

import pytest

from repro.adts import PageType, SetType, StackType
from repro.core.dependency_graph import DependencyGraph, EdgeKind
from repro.core.object_manager import ObjectManager
from repro.core.policy import ConflictPolicy


# ----------------------------------------------------------------------
# DependencyGraph.creates_cycle vs naive BFS
# ----------------------------------------------------------------------
def naive_edges(graph):
    """Plain successor mapping rebuilt from the graph's public edge list."""
    successors = {}
    for edge in graph.edges():
        successors.setdefault(edge.source, set()).add(edge.target)
    return successors


def naive_reachable(successors, start, goal):
    seen, stack = set(), [start]
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(successors.get(node, ()))
    return False


def naive_creates_cycle(graph, source, targets):
    successors = naive_edges(graph)
    return any(
        target != source and naive_reachable(successors, target, source)
        for target in targets
    )


@pytest.mark.parametrize("seed", [1, 7, 42, 1234, 99991])
def test_creates_cycle_matches_naive_check_on_random_mutations(seed):
    rng = random.Random(seed)
    graph = DependencyGraph()
    nodes = list(range(12))
    kinds = (EdgeKind.WAIT_FOR, EdgeKind.COMMIT_DEPENDENCY)
    for _ in range(400):
        action = rng.random()
        source = rng.choice(nodes)
        if action < 0.45:
            graph.add_edge(source, rng.choice(nodes), rng.choice(kinds))
        elif action < 0.60:
            graph.remove_edges_from(source, rng.choice((None,) + kinds))
        elif action < 0.72:
            graph.remove_node(source)
        else:
            targets = set(rng.sample(nodes, rng.randint(1, 4)))
            # add the query nodes first, as the scheduler's begin() does
            graph.add_node(source)
            for target in targets:
                graph.add_node(target)
            expected = naive_creates_cycle(graph, source, targets)
            assert graph.creates_cycle(source, targets) == expected, (
                f"seed={seed}: creates_cycle({source}, {sorted(targets)}) diverged"
            )


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_reachable_matches_naive_check_on_random_mutations(seed):
    rng = random.Random(seed)
    graph = DependencyGraph()
    nodes = list(range(10))
    for _ in range(300):
        action = rng.random()
        if action < 0.5:
            graph.add_edge(rng.choice(nodes), rng.choice(nodes), EdgeKind.WAIT_FOR)
        elif action < 0.65:
            graph.remove_node(rng.choice(nodes))
        else:
            start, goal = rng.choice(nodes), rng.choice(nodes)
            graph.add_node(start)
            graph.add_node(goal)
            successors = naive_edges(graph)
            assert graph.reachable(start, goal) == (
                start == goal or naive_reachable(successors, start, goal)
            )


# ----------------------------------------------------------------------
# ObjectManager.classify_request vs a naive full-log scan
# ----------------------------------------------------------------------
def naive_classify_request(manager, invocation, transaction_id, policy):
    """The pre-index implementation: walk every uncommitted event."""
    from repro.core.compatibility import ConflictClass
    from repro.core.policy import effective_class

    conflicting, recoverable = set(), set()
    for event in manager.uncommitted:
        if event.transaction_id == transaction_id:
            continue
        pairwise = effective_class(
            policy, manager.compatibility.classify(invocation, event.invocation, manager.spec)
        )
        if pairwise is ConflictClass.CONFLICT:
            conflicting.add(event.transaction_id)
            recoverable.discard(event.transaction_id)
        elif pairwise is ConflictClass.RECOVERABLE:
            if event.transaction_id not in conflicting:
                recoverable.add(event.transaction_id)
    return conflicting, recoverable


SAMPLE_INVOCATIONS = {
    "page": PageType().sample_invocations("read") + PageType().sample_invocations("write"),
    "stack": (
        StackType().sample_invocations("push")
        + StackType().sample_invocations("pop")
        + StackType().sample_invocations("top")
    ),
    "set": (
        SetType().sample_invocations("insert")
        + SetType().sample_invocations("delete")
        + SetType().sample_invocations("member")
    ),
}


@pytest.mark.parametrize("type_name,spec_factory", [
    ("page", PageType),
    ("stack", StackType),
    ("set", SetType),
])
@pytest.mark.parametrize("seed", [5, 21, 777])
def test_classify_request_matches_naive_scan(type_name, spec_factory, seed):
    rng = random.Random(seed)
    spec = spec_factory()
    manager = ObjectManager(
        name="O", spec=spec, initial_state=spec.initial_state(), materialize_state=False
    )
    invocations = list(SAMPLE_INVOCATIONS[type_name])
    policies = (ConflictPolicy.COMMUTATIVITY, ConflictPolicy.RECOVERABILITY)
    sequence = 0
    live = []
    for _ in range(250):
        action = rng.random()
        if action < 0.55 or not live:
            tid = rng.randint(1, 8)
            sequence += 1
            manager.execute(rng.choice(invocations), tid, sequence)
            if tid not in live:
                live.append(tid)
        elif action < 0.70:
            tid = rng.choice(live)
            manager.remove_transaction(tid, commit=rng.random() < 0.5)
            live.remove(tid)
        else:
            requested = rng.choice(invocations)
            requester = rng.randint(1, 8)
            for policy in policies:
                expected = naive_classify_request(manager, requested, requester, policy)
                result = manager.classify_request(requested, requester, policy)
                assert result == expected, (
                    f"seed={seed} {type_name}: classification diverged for "
                    f"{requested} by T{requester} under {policy}"
                )
        assert manager.live_transactions() == {
            event.transaction_id for event in manager.uncommitted
        }
