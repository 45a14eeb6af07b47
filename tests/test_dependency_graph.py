"""Tests for the unified wait-for / commit-dependency graph."""


from repro.core.dependency_graph import DependencyGraph, Edge, EdgeKind


def make_chain(*pairs):
    graph = DependencyGraph()
    for source, target in pairs:
        graph.add_edge(source, target, EdgeKind.COMMIT_DEPENDENCY)
    return graph


class TestNodesAndEdges:
    def test_add_node_is_idempotent(self):
        graph = DependencyGraph()
        graph.add_node(1)
        graph.add_node(1)
        assert graph.nodes() == {1}

    def test_add_edge_creates_missing_nodes(self):
        graph = make_chain((1, 2))
        assert graph.nodes() == {1, 2}
        assert graph.has_edge(1, 2)
        assert graph.has_edge(1, 2, EdgeKind.COMMIT_DEPENDENCY)
        assert not graph.has_edge(1, 2, EdgeKind.WAIT_FOR)

    def test_self_loops_are_ignored(self):
        graph = DependencyGraph()
        graph.add_edge(1, 1, EdgeKind.WAIT_FOR)
        assert graph.edge_count() == 0

    def test_two_kinds_on_same_pair(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeKind.WAIT_FOR)
        graph.add_edge(1, 2, EdgeKind.COMMIT_DEPENDENCY)
        assert graph.edge_count() == 2
        assert graph.out_degree(1) == 1
        assert graph.out_degree(1, EdgeKind.WAIT_FOR) == 1

    def test_successors_predecessors(self):
        graph = make_chain((1, 2), (1, 3))
        assert graph.successors(1) == {2, 3}
        assert graph.predecessors(2) == {1}
        assert graph.predecessors(1) == set()

    def test_edges_listing(self):
        graph = make_chain((1, 2))
        assert graph.edges() == [Edge(1, 2, EdgeKind.COMMIT_DEPENDENCY)]

    def test_add_edges_bulk(self):
        graph = DependencyGraph()
        graph.add_edges(1, [2, 3, 1], EdgeKind.WAIT_FOR)
        assert graph.successors(1) == {2, 3}


class TestRemoval:
    def test_remove_node_returns_former_predecessors(self):
        graph = make_chain((1, 3), (2, 3), (3, 4))
        former = graph.remove_node(3)
        assert former == {1, 2}
        assert graph.nodes() == {1, 2, 4}
        assert graph.out_degree(1) == 0
        assert graph.predecessors(4) == set()

    def test_remove_missing_node_is_noop(self):
        graph = DependencyGraph()
        assert graph.remove_node(99) == set()

    def test_remove_edges_from_by_kind(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeKind.WAIT_FOR)
        graph.add_edge(1, 3, EdgeKind.COMMIT_DEPENDENCY)
        graph.remove_edges_from(1, EdgeKind.WAIT_FOR)
        assert not graph.has_edge(1, 2)
        assert graph.has_edge(1, 3)

    def test_remove_all_edges_from(self):
        graph = make_chain((1, 2), (1, 3))
        graph.remove_edges_from(1)
        assert graph.out_degree(1) == 0
        assert graph.nodes() == {1, 2, 3}


class TestCycles:
    def test_reachable(self):
        graph = make_chain((1, 2), (2, 3))
        assert graph.reachable(1, 3)
        assert not graph.reachable(3, 1)
        assert not graph.reachable(1, 99)

    def test_creates_cycle_detects_back_path(self):
        graph = make_chain((2, 1))
        assert graph.creates_cycle(1, {2})
        assert not graph.creates_cycle(2, {1})  # the edge already exists; no new cycle

    def test_creates_cycle_ignores_self(self):
        graph = DependencyGraph()
        graph.add_node(1)
        assert not graph.creates_cycle(1, {1})

    def test_find_cycle_none_when_acyclic(self):
        graph = make_chain((1, 2), (2, 3), (1, 3))
        assert graph.find_cycle() is None
        assert not graph.has_cycle()

    def test_find_cycle_returns_cycle_nodes(self):
        graph = make_chain((1, 2), (2, 3), (3, 1))
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) == {1, 2, 3}
        assert graph.has_cycle()

    def test_mixed_kind_cycle_is_detected(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeKind.WAIT_FOR)
        graph.add_edge(2, 1, EdgeKind.COMMIT_DEPENDENCY)
        assert graph.has_cycle()

    def test_zero_out_degree_nodes(self):
        graph = make_chain((1, 2), (3, 2))
        assert graph.zero_out_degree_nodes() == {2}
        assert graph.zero_out_degree_nodes(candidates=[1, 2]) == {2}

    def test_len_counts_nodes(self):
        graph = make_chain((1, 2), (2, 3))
        assert len(graph) == 3


class TestObserver:
    def observed(self):
        graph = DependencyGraph()
        calls = []
        graph.observer = lambda source, target, gained: calls.append((source, target, gained))
        return graph, calls

    def test_a_pair_is_reported_once_whatever_its_kinds(self):
        graph, calls = self.observed()
        graph.add_edge(1, 2, EdgeKind.WAIT_FOR)
        graph.add_edge(1, 2, EdgeKind.COMMIT_DEPENDENCY)
        graph.add_edges(1, [2, 3], EdgeKind.WAIT_FOR)
        assert calls == [(1, 2, True), (1, 3, True)]
        graph.remove_edges_from(1, EdgeKind.WAIT_FOR)  # 1 -> 2 keeps a kind
        assert calls[2:] == [(1, 3, False)]
        graph.remove_edges_from(1)
        assert calls[3:] == [(1, 2, False)]
        assert len(calls) == graph.mutations

    def test_remove_node_reports_every_dropped_edge(self):
        graph, calls = self.observed()
        for source, target in ((1, 3), (2, 3), (3, 4)):
            graph.add_edge(source, target, EdgeKind.COMMIT_DEPENDENCY)
        del calls[:]
        graph.remove_node(3)
        assert sorted(calls) == [(1, 3, False), (2, 3, False), (3, 4, False)]

    def test_remove_edge_clears_a_back_edge_and_rebuilds_the_order(self):
        graph, calls = self.observed()
        graph.add_edge(1, 2, EdgeKind.WAIT_FOR)
        graph.add_edge(2, 3, EdgeKind.WAIT_FOR)
        graph.add_edge(3, 1, EdgeKind.WAIT_FOR)  # closes a cycle: a back edge
        assert graph.may_have_cycle()
        graph.remove_edge(3, 2)  # absent pair: nothing happens
        assert calls[-1] == (3, 1, True)
        graph.remove_edge(3, 1)
        assert calls[-1] == (3, 1, False)
        assert not graph.may_have_cycle()
        assert graph.order_violations() == []
        assert graph.nodes() == {1, 2, 3}
        # The rebuilt order answers cycle checks again.
        assert graph.creates_cycle(3, {1})
        assert not graph.creates_cycle(1, {3})

    def test_only_a_multi_site_simulation_observes_its_graphs(self):
        from repro.sim.params import SimulationParameters
        from repro.sim.simulator import Simulation

        central = Simulation(SimulationParameters(seed=1, total_completions=5))
        assert central.router.scheduler.graph.observer is None
        crashing = Simulation(SimulationParameters(
            seed=1, total_completions=5, failure_schedule=((0.5, "fail", 0),),
        ))
        assert crashing.router.sites[0].scheduler.graph.observer is None
        replicated = Simulation(SimulationParameters(
            seed=1, total_completions=5, site_count=2, replication="copies",
        ))
        assert all(
            site.scheduler.graph.observer is not None for site in replicated.router.sites
        )
