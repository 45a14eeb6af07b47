"""The maintained union graph must be the one the transaction-driven walk sees.

``UnionCycleDetector`` keeps a union graph over global tids up to date from
the per-site graphs' edge observers and the router's map pops, and searches
it only when a back edge is recorded.  The reference below is the walk it
replaced — every live transaction, every branch, every site, the union graph
re-derived one transaction at a time — kept here as an independent oracle:
it shares no code with ``repro.distributed.cycles`` and reads only the
router's own bookkeeping.  At every sweep tick of seeded multi-site runs the
maintained adjacency must equal the reference adjacency, an "acyclic"
verdict must hold for it, and both must name the same victim (or ``None``) at
every detection pass; hand-built union graphs isolate each rule of the sweep.
"""

import pytest

from repro.adts.page import PageType
from repro.core.dependency_graph import EdgeKind
from repro.core.policy import ConflictPolicy
from repro.core.transaction import TransactionStatus
from repro.distributed import TransactionRouter
from repro.distributed.router import BranchRef
from repro.sim.params import SimulationParameters
from repro.sim.simulator import Simulation

_LIVE = (TransactionStatus.ACTIVE, TransactionStatus.PSEUDO_COMMITTED)


# ----------------------------------------------------------------------
# The reference: the transaction-driven walk
# ----------------------------------------------------------------------
def reference_successors(router, gtid):
    transaction = router.transactions.get(gtid)
    if transaction is None:
        return set()
    successors = set()
    for site_id, branch in transaction.branches.items():
        site = router.sites[site_id]
        if not site.status.is_up or branch.generation != site.generation:
            continue
        local_map = router._local_map[site_id]
        for local_successor in site.scheduler.graph.successors(branch.local_tid):
            successor = local_map.get(local_successor)
            if successor is not None and successor != gtid:
                successors.add(successor)
    return successors


def reference_victim(router):
    transactions = router.transactions
    color = {}  # 1 = on the DFS path, 2 = finished
    path = []
    roots = sorted(
        gtid for gtid, transaction in transactions.items() if transaction.status in _LIVE
    )
    for root in roots:
        if root in color:
            continue
        color[root] = 1
        path.append(root)
        stack = [(root, iter(sorted(reference_successors(router, root))))]
        while stack:
            node, successors = stack[-1]
            descended = False
            for successor in successors:
                state = color.get(successor)
                if state == 1:
                    cycle = path[path.index(successor):]
                    active = [
                        gtid for gtid in cycle
                        if transactions[gtid].status is TransactionStatus.ACTIVE
                    ]
                    if active:
                        return max(active)
                elif state is None:
                    color[successor] = 1
                    path.append(successor)
                    stack.append(
                        (successor, iter(sorted(reference_successors(router, successor))))
                    )
                    descended = True
                    break
            if not descended:
                stack.pop()
                path.pop()
                color[node] = 2
    return None


def reference_adjacency(router):
    adjacency = {}
    for gtid in sorted(router.transactions):
        if router.transactions[gtid].status in _LIVE:
            successors = reference_successors(router, gtid)
            if successors:
                adjacency[gtid] = sorted(successors)
    return adjacency


def reference_has_cycle(adjacency):
    color = {}  # 1 = on the DFS path, 2 = finished

    def visit(node):
        color[node] = 1
        for successor in adjacency.get(node, ()):
            if color.get(successor) == 1:
                return True
            if successor not in color and visit(successor):
                return True
        color[node] = 2
        return False

    return any(node not in color and visit(node) for node in adjacency)


def union_adjacency(router):
    graph = router._cycles.graph
    return {gtid: sorted(graph.successors(gtid)) for gtid in sorted(graph.edge_sources())}


def check_every_pass(router):
    """Check the union at every sweep tick and both searches at every
    detection pass; returns the victim log."""
    detector = router._cycles
    edge_driven = detector._find_sweep_victim
    sweep = detector.sweep
    victims = []

    def checked():
        expected = reference_victim(router)
        victim = edge_driven()
        assert victim == expected
        victims.append(victim)
        return victim

    def checked_sweep():
        reference = reference_adjacency(router)
        assert union_adjacency(router) == reference
        if not detector.graph.may_have_cycle():
            assert not reference_has_cycle(reference)
        return sweep()

    detector._find_sweep_victim = checked
    detector.sweep = checked_sweep
    return victims


# ----------------------------------------------------------------------
# Seeded runs: every sweep tick of a crashing, thrashing multi-site run
# ----------------------------------------------------------------------
#: The ADT workload under recoverability is what closes cycles outside a
#: submit (grant-time commit dependencies); read/write pages never do.
#: Sizes and seeds are chosen so that every run has sweep victims.
AC4_PER_SITE = dict(
    site_count=4, replication="copies", resource_units=1,
    resource_placement="per_site", msg_time=0.001,
    mpl_level=20, database_size=15, total_completions=30,
)
#: The scripted double crash of ``benchmarks/perf``'s ``q3-2pc-crash``: every
#: ten simulated seconds site 1 fails and recovers, then site 0 does.
DOUBLE_CRASH = tuple(
    event
    for start in range(0, 40, 10)
    for event in ((start + 2, "fail", 1), (start + 4, "recover", 1),
                  (start + 5, "fail", 0), (start + 7, "recover", 0))
)
Q3_2PC_CRASH = dict(
    site_count=3, replication="copies", replication_protocol="quorum",
    quorum_read=2, quorum_write=2, commit_protocol="two-phase", msg_time=0.002,
    mpl_level=15, database_size=40, total_completions=150,
    failure_schedule=DOUBLE_CRASH,
)
#: Single-copy objects sharded by hash: one union edge per local pair.
HASH2 = dict(
    site_count=2, replication="hash", mpl_level=20, database_size=15,
    total_completions=30,
)


@pytest.mark.parametrize("shape,seed", [
    *((AC4_PER_SITE, seed) for seed in (1, 4, 7, 9, 10)),
    *((Q3_2PC_CRASH, seed) for seed in (1, 2, 3, 4, 5)),
    *((HASH2, seed) for seed in (1, 2)),
], ids=lambda value: f"sites{value['site_count']}" if isinstance(value, dict) else f"seed{value}")
def test_sweep_names_the_reference_victim_at_every_tick(shape, seed):
    params = SimulationParameters(
        seed=seed, policy=ConflictPolicy.RECOVERABILITY, **shape
    )
    simulation = Simulation(params, workload_kind="adt")
    victims = check_every_pass(simulation.router)
    simulation.run()
    assert len(victims) > 100  # the gate let this many detection passes run
    assert any(victim is not None for victim in victims)


# ----------------------------------------------------------------------
# Hand-built union graphs: one rule of the sweep each
# ----------------------------------------------------------------------
def make_router(sites, transactions):
    """A hash-placed router whose transactions each hold a branch per site.

    Every transaction reads a private object at every site, so the branches
    exist and nothing conflicts: the tests then put dependency edges straight
    into the site graphs, which is how a grant inside a termination cascade
    adds them — with no submit for the per-submit check to ride on.
    """
    router = TransactionRouter(
        site_count=sites, replication="hash",
        policy=ConflictPolicy.RECOVERABILITY, retain_terminated=True,
    )
    page = PageType()
    names = iter(f"obj{index}" for index in range(1000))
    begun = [router.begin() for _ in range(transactions)]
    for transaction in begun:
        for site_id in range(sites):
            name = next(n for n in names if router.placement.sites_for(n) == (site_id,))
            router.register_object(name, page, compatibility=page.compatibility())
            assert router.perform(transaction.gtid, name, "read").executed
    return router, begun


def add_edge(router, site_id, source, target):
    graph = router.sites[site_id].scheduler.graph
    graph.add_edge(
        source.branches[site_id].local_tid,
        target.branches[site_id].local_tid,
        EdgeKind.COMMIT_DEPENDENCY,
    )


def test_edges_at_a_single_site_end_the_pass_before_any_search():
    router, (a, b, c) = make_router(sites=2, transactions=3)
    add_edge(router, 0, a, b)
    add_edge(router, 0, b, c)
    # One acyclic site graph under an injective map: an acyclic union.
    assert union_adjacency(router) == {a.gtid: [b.gtid], b.gtid: [c.gtid]}
    assert not router._cycles.graph.may_have_cycle()
    victims = check_every_pass(router)
    assert router.sweep_global_cycles() == 0
    assert victims == [None]
    # One more site with an edge and the union graph is worth searching.
    add_edge(router, 1, c, b)
    assert union_adjacency(router) == {
        a.gtid: [b.gtid], b.gtid: [c.gtid], c.gtid: [b.gtid],
    }
    assert router._cycles.graph.may_have_cycle()
    assert router.sweep_global_cycles() == 1
    assert c.status is TransactionStatus.ABORTED


def test_cycle_without_an_active_member_is_skipped_and_the_search_goes_on():
    router, (a, b, c, d) = make_router(sites=2, transactions=4)
    for older, younger in ((a, b), (c, d)):
        add_edge(router, 0, older, younger)
        add_edge(router, 1, younger, older)
    # Nobody in the first cycle can be aborted any more.
    a.status = b.status = TransactionStatus.PSEUDO_COMMITTED
    victims = check_every_pass(router)
    assert router.sweep_global_cycles() == 1
    assert victims == [d.gtid, None]
    assert d.status is TransactionStatus.ABORTED
    assert c.status is TransactionStatus.ACTIVE
    assert a.status is b.status is TransactionStatus.PSEUDO_COMMITTED


def test_overlapping_cycles_are_broken_one_victim_at_a_time():
    router, (a, b, c, d, e) = make_router(sites=2, transactions=5)
    # Two cycles through ``a``, and a disjoint one among younger transactions.
    for older, younger in ((a, b), (a, c), (d, e)):
        add_edge(router, 0, older, younger)
        add_edge(router, 1, younger, older)
    victims = check_every_pass(router)
    assert router.sweep_global_cycles() == 3
    # Oldest root first, and each abort followed by a fresh look at the graph.
    assert victims == [b.gtid, c.gtid, e.gtid, None]
    assert a.status is d.status is TransactionStatus.ACTIVE
    assert router.router_stats.cycle_sweeps == 1
    assert router.router_stats.cross_site_deadlock_aborts == 3


def test_stale_generation_branch_is_not_mistaken_for_its_tid_successor():
    router = TransactionRouter(
        site_count=3, replication="hash",
        policy=ConflictPolicy.RECOVERABILITY, retain_terminated=True,
    )
    page = PageType()
    names = [f"obj{index}" for index in range(64)]
    x = next(n for n in names if router.placement.sites_for(n) == (0,))
    y = next(n for n in names if router.placement.sites_for(n) == (2,))
    for name in (x, y):
        router.register_object(name, page, compatibility=page.compatibility())
    a, b = router.begin(), router.begin()
    assert router.perform(a.gtid, y, "read").executed  # a's branch at site 2
    assert router.perform(b.gtid, x, "write", 1).executed
    assert router.perform(a.gtid, x, "write", 2).executed  # a -> b at site 0
    assert router.commit(a.gtid) is TransactionStatus.PSEUDO_COMMITTED
    router.fail_site(2)
    router.recover_site(2)
    # The pseudo-committed ``a`` keeps its branch from the lost generation,
    # and the fresh scheduler hands the same local tid to ``c``.
    c = router.begin()
    assert router.perform(c.gtid, y, "write", 3).executed
    assert a.branches[2] == BranchRef(c.branches[2].local_tid, generation=0)
    assert c.branches[2].generation == 1
    assert router.perform(b.gtid, y, "write", 4).executed  # b -> c at site 2
    # a -> b -> c: reading c's node as a's would close a cycle a -> b -> a.
    assert union_adjacency(router) == {a.gtid: [b.gtid], b.gtid: [c.gtid]}
    victims = check_every_pass(router)
    assert router.sweep_global_cycles() == 0
    assert victims == [None]
    assert b.status is c.status is TransactionStatus.ACTIVE
