"""Union-graph cycle detection over the per-site dependency graphs.

Cross-site cycles — deadlocks or commit-dependency cycles spanning sites,
which no single site's graph can see — are the one global hazard of the
multi-site layer.  :class:`UnionCycleDetector` owns every way the router
looks for them:

* :meth:`closes_cycle` — the per-submit check: did the fan-out just routed
  close a cycle through the submitting transaction?
* :meth:`sweep` — the periodic, mutation-gated sweep that catches cycles
  closed *outside* a submit (grant-time commit-dependency edges added
  inside termination cascades);
* :meth:`find_cycle_through` — the commit-time certification of two-phase
  commit, which needs the cycle's *members* for the sweep's victim rule;
* :meth:`stall_report` — when a run stops completing, why nothing moves.

All of them read one maintained union graph, a
:class:`~repro.core.dependency_graph.DependencyGraph` over global tids: an
edge ``g1 -> g2`` exists exactly when some up site has a local edge
``a -> b`` whose ends its local-to-global map sends to ``g1`` and ``g2``.  It
is never rebuilt.  Site graphs report every pair they gain or lose to an
edge observer (:meth:`watch`); the router reports the maps a crash clears
(:meth:`site_failed`) and an entry popped while its node may keep edges
(:meth:`unmapped`).  A terminating branch's pop needs no report: its node's
removal follows in the same call, before any check can run, and union edges
are reference-counted over their supporting ``(site, a, b)`` pairs, each
recorded when the local pair appears, so that removal stays exact.  Site
graphs are acyclic and the maps injective, so a union cycle spans sites, and
the union's Pearce–Kelly order records the edge that closed it as a back
edge: while none is recorded the union is acyclic and every query is O(1).

The detector also owns the sweep's *mutation gate*: a sweep whose union
mutation total is unchanged has nothing new to inspect and costs one
integer sum.  The total must be monotonic across site crashes — a failed
scheduler's count leaves the live sum, and its recovered successor counts
from zero — so the counts of every discarded scheduler are retired into
:attr:`_retired_mutations` at failure time (see :meth:`site_failed`).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.dependency_graph import DependencyGraph, EdgeKind
from ..core.requests import AbortReason
from ..core.transaction import TransactionStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .router import TransactionRouter
    from .site import Site

__all__ = ["UnionCycleDetector"]

#: Statuses whose transactions can still be waited on (the sweep's DFS roots).
_LIVE = (TransactionStatus.ACTIVE, TransactionStatus.PSEUDO_COMMITTED)


class UnionCycleDetector:
    """All union-graph cycle checks for one router."""

    def __init__(self, router: "TransactionRouter"):
        self.router = router
        #: Union-graph mutation total at the end of the last periodic sweep;
        #: a sweep whose total is unchanged has nothing new to inspect.
        self._swept_mutations = 0
        #: Mutations accumulated by schedulers that crashes discarded.  The
        #: sweep gate's total must be monotonic: without this, a site that
        #: failed (its count leaves the sum) and recovered (a fresh graph
        #: counts from zero) could return the sum to an already-seen value
        #: while a cycle closed in between, silencing the sweep for good.
        self._retired_mutations = 0
        #: The union graph over global tids.
        self.graph = DependencyGraph()
        #: Per site: local pair ``(a, b)`` -> the union pair it supports.
        self._contributions: List[Dict[Tuple[int, int], Tuple[int, int]]] = [
            {} for _ in self.router.sites
        ]
        #: Union pair -> number of supporting local pairs.
        self._support: Dict[Tuple[int, int], int] = {}
        for site in self.router.sites:
            self.watch(site)

    # ------------------------------------------------------------------
    # The union graph (maintained, never rebuilt)
    # ------------------------------------------------------------------
    def watch(self, site: "Site") -> None:
        """Feed the union from ``site``'s current (perhaps just fresh) graph."""
        if self.router.site_count > 1:
            site.scheduler.graph.observer = partial(self._local_edge, site.site_id)

    def _local_edge(self, site_id: int, source: int, target: int, gained: bool) -> None:
        """Observer of one site graph: a local pair appeared or vanished."""
        if gained:
            local_map = self.router._local_map[site_id]
            owner, successor = local_map.get(source), local_map.get(target)
            if owner is not None and successor is not None:
                pair = self._contributions[site_id][source, target] = (owner, successor)
                count = self._support.get(pair, 0)
                self._support[pair] = count + 1
                if not count:
                    self.graph.add_edge(owner, successor, EdgeKind.WAIT_FOR)
        else:
            pair = self._contributions[site_id].pop((source, target), None)
            if pair is not None:
                self._drop(pair)

    def _drop(self, pair: Tuple[int, int]) -> None:
        count = self._support.pop(pair) - 1
        if count:
            self._support[pair] = count
            return
        graph = self.graph
        graph.remove_edge(*pair)
        for gtid in pair:  # keep the node set to the edges' endpoints
            if not graph.successors(gtid) and not graph.predecessors(gtid):
                graph.remove_node(gtid)

    def unmapped(self, site_id: int, local_tid: int) -> None:
        """``local_tid`` left the site's map: its pairs no longer count."""
        contributions = self._contributions[site_id]
        if not contributions:
            return
        graph = self.router.sites[site_id].scheduler.graph
        for target in graph.successors(local_tid):  # repro-lint: disable=REP002 (reference counts: any order ends in the same union)
            self._local_edge(site_id, local_tid, target, False)
        for source in graph.predecessors(local_tid):  # repro-lint: disable=REP002 (reference counts: any order ends in the same union)
            self._local_edge(site_id, source, local_tid, False)

    def site_failed(self, site_id: int) -> None:
        """The site's map was cleared by a crash: retire its graph."""
        self._retired_mutations += self.router.sites[site_id].scheduler.graph.mutations
        for pair in self._contributions[site_id].values():
            self._drop(pair)
        self._contributions[site_id].clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def closes_cycle(self, gtid: int) -> bool:
        """Only a cycle through the submitter can close in its fan-out."""
        return self.find_cycle_through(gtid) is not None

    def find_cycle_through(self, target: int) -> Optional[List[int]]:
        """Members of one union-graph cycle through ``target``, or ``None``.

        Plain reachability DFS from the target's successors back to the
        target, parents recorded for path reconstruction — the commit-time
        certification needs the members to pick its victim.
        """
        graph = self.graph
        if not graph.may_have_cycle():
            return None
        parent: Dict[int, Optional[int]] = {}
        stack: List[int] = []
        for successor in sorted(graph.successors(target)):
            parent[successor] = None
            stack.append(successor)
        while stack:
            node = stack.pop()
            for successor in sorted(graph.successors(node)):
                if successor == target:
                    members = [target]
                    cursor: Optional[int] = node
                    while cursor is not None:
                        members.append(cursor)
                        cursor = parent[cursor]
                    return members
                if successor not in parent:
                    parent[successor] = node
                    stack.append(successor)
        return None

    # ------------------------------------------------------------------
    # The mutation gate
    # ------------------------------------------------------------------
    def union_mutations(self) -> int:
        """Monotonic mutation total of the union graph, crashes included.

        Live graphs' counters plus the final counts of every scheduler a
        crash discarded — so failing and recovering a site can never return
        the total to a previously-seen value and mask work from the sweep.
        """
        return self._retired_mutations + sum(
            site.scheduler.graph.mutations
            for site in self.router.sites
            if site.status.is_up
        )

    # ------------------------------------------------------------------
    # The periodic sweep
    # ------------------------------------------------------------------
    def sweep(self) -> int:
        """Detect and break union-graph cycles closed outside a submit.

        The per-submit check only covers cycles closed by the operation
        being routed; a queued request *granted* during another
        transaction's termination cascade can add commit-dependency edges no
        submit ever carried, closing a cross-site cycle with nobody
        submitting — the participants then wedge their mpl slots forever.
        The simulator runs this sweep periodically from an engine event (a
        context where aborting is safe: no scheduler callback is on the
        stack).  Gated on the dependency graphs' mutation counters, a quiet
        period costs one integer sum; a detection pass over an acyclic union
        costs one test of its recorded back edges.

        A late-closed cycle hurts either way: a wait cycle wedges its
        members' mpl slots, and a commit-dependency cycle that reaches the
        commit path drains branch by branch — each site's cascade respects
        only its *local* edges, so the members durably commit in a circular
        global order, violating the dependencies the protocol exists to
        respect.  (Under the two-phase commit protocol that second race is
        also closed at the commit itself: certification re-checks the union
        graph in the prepare step.)  The sweep catches the cycle while its
        members are still live and aborts the youngest ``ACTIVE`` one with
        ``AbortReason.DEADLOCK`` — the same newest-first victim rule as the
        per-submit check.  Returns the number of victims aborted.
        """
        router = self.router
        if router.site_count <= 1:
            return 0
        mutations = self.union_mutations()
        if mutations == self._swept_mutations:
            return 0
        router.router_stats.cycle_sweeps += 1
        aborted = 0
        # One victim per detection pass: aborting a victim can break several
        # overlapping cycles at once, so victims are never batch-collected
        # from a stale graph — each abort is followed by a fresh look.
        while True:
            victim = self._find_sweep_victim()
            if victim is None:
                break
            router.router_stats.cross_site_deadlock_aborts += 1
            router._global_abort(router.transactions[victim], AbortReason.DEADLOCK)
            aborted += 1
        # Aborting mutates the graphs; snapshot afterwards so the next quiet
        # sweep is free again.
        self._swept_mutations = self.union_mutations() if aborted else mutations
        return aborted

    def _find_sweep_victim(self) -> Optional[int]:
        """The victim of the first abortable union-graph cycle, or ``None``.

        DFS over the union graph from its ``ACTIVE``/``PSEUDO_COMMITTED``
        transactions, oldest first, successors ascending; in the first cycle
        found that has an ``ACTIVE`` member, the youngest such member is the
        victim.  Cycles with no abortable member are skipped (see
        :meth:`sweep`) and the search continues.  Free while the union is
        acyclic.
        """
        graph = self.graph
        if not graph.may_have_cycle():
            return None
        transactions = self.router.transactions
        color: Dict[int, int] = {}  # 1 = on the DFS path, 2 = finished
        path: List[int] = []
        for root in sorted(graph.edge_sources()):
            if root in color or transactions[root].status not in _LIVE:
                continue
            color[root] = 1
            path.append(root)
            stack = [(root, iter(sorted(graph.successors(root))))]
            while stack:
                node, successors = stack[-1]
                for successor in successors:
                    state = color.get(successor)
                    if state == 1:
                        active = [
                            gtid
                            for gtid in path[path.index(successor):]
                            if transactions[gtid].status is TransactionStatus.ACTIVE
                        ]
                        if active:
                            return max(active)
                    elif state is None:
                        color[successor] = 1
                        path.append(successor)
                        stack.append((successor, iter(sorted(graph.successors(successor)))))
                        break
                else:
                    stack.pop()
                    path.pop()
                    color[node] = 2
        return None

    def stall_report(self) -> str:
        """Per site: up or down, graph size, unreadable copies, blocked queues
        (object -> gtids), pseudo-committed branches and the gtids they wait
        for; then the active transactions no branch blocks, and the union
        verdict."""
        lines = []
        for site in self.router.sites:
            if not site.status.is_up:
                lines.append(f"site {site.site_id}: down")
                continue
            scheduler, gtid = site.scheduler, self.router._local_map[site.site_id].get
            graph = scheduler.graph
            lines.append(f"site {site.site_id}: up, {len(graph)} nodes, {graph.edge_count()} edges")
            if site.unreadable:
                lines.append(f"  unreadable {sorted(site.unreadable)}")
            for obj, manager in sorted(scheduler._blocked_objects.items()):
                lines.append(f"  {obj} blocks {[gtid(p.transaction_id) for p in manager.blocked]}")
            for tid, local in sorted(scheduler.transactions.items()):
                if local.status is TransactionStatus.PSEUDO_COMMITTED:
                    waits = [gtid(target) for target in sorted(graph.successors(tid))]
                    lines.append(f"  pseudo-committed {gtid(tid)} waits for {waits}")
        unblocked = [
            transaction.gtid
            for _, transaction in sorted(self.router.transactions.items())
            if transaction.status is TransactionStatus.ACTIVE
            and (transaction.current_request is None or not transaction.current_request.blocked)
        ]
        lines.append(f"live, unblocked: {unblocked}")
        cycle = self.graph.find_cycle()
        lines.append(f"union graph: {'acyclic' if cycle is None else f'cycle {cycle}'}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<UnionCycleDetector edges={len(self._support)} "
            f"swept={self._swept_mutations} retired={self._retired_mutations}>"
        )
