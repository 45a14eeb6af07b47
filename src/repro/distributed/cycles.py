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
* :meth:`find_cycle_through` — the commit-time certification used by the
  two-phase commit protocol, which needs the cycle's *members* so it can
  apply the sweep's newest-``ACTIVE`` victim rule.

All three walk the same union graph: the per-site dependency graphs joined
through the router's local-tid-to-global-tid maps.  Per-site graphs are
individually acyclic — each site checks before adding edges — and the maps
are injective, so any union cycle necessarily spans sites.  The per-conflict
checks expand one transaction at a time (:meth:`global_successors`); the
sweep, which has no starting transaction, builds the whole adjacency from
the sites' edge-bearing graph nodes (:meth:`_union_adjacency`), so a pass
costs O(edges) — the few conflicting transactions the paper's unified graph
holds — rather than O(live transactions x sites).

The detector also owns the sweep's *mutation gate*: a sweep whose union
mutation total is unchanged has nothing new to inspect and costs one
integer sum.  The total must be monotonic across site crashes — a failed
scheduler's count leaves the live sum, and its recovered successor counts
from zero — so the counts of every discarded scheduler are retired into
:attr:`_retired_mutations` at failure time (see :meth:`retire_graph`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from ..core.requests import AbortReason
from ..core.transaction import TransactionStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .router import TransactionRouter

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

    def reset(self) -> None:
        """Rewind the mutation gate for a reused router (fresh graphs count
        from zero again)."""
        self._swept_mutations = 0
        self._retired_mutations = 0

    # ------------------------------------------------------------------
    # The union graph
    # ------------------------------------------------------------------
    def global_successors(self, gtid: int) -> Set[int]:
        """Union of one transaction's per-site dependency-graph successors."""
        router = self.router
        transaction = router.transactions.get(gtid)
        if transaction is None:
            return set()
        successors: Set[int] = set()
        for site_id, branch in transaction.branches.items():
            site = router.sites[site_id]
            if not site.status.is_up or branch.generation != site.generation:
                continue
            local_map = router._local_map[site_id]
            local_successors = site.scheduler.graph.successors(branch.local_tid)
            for local_successor in local_successors:  # repro-lint: disable=REP002 (fills a set; order-sensitive callers sort)
                successor_gtid = local_map.get(local_successor)
                if successor_gtid is not None and successor_gtid != gtid:
                    successors.add(successor_gtid)
        return successors

    def closes_cycle(self, gtid: int) -> bool:
        """True when the union graph has a cycle through ``gtid``.

        Only cycles through the submitting transaction can have been closed
        by the operation just routed, so a DFS from it suffices — and only
        when an edge enters it: some live branch of it has a mapped local
        predecessor (another global transaction's branch at that site).  A
        yes/no reachability walk may visit successors in any order.
        """
        router = self.router
        transaction = router.transactions.get(gtid)
        if transaction is None:
            return False
        for site_id, branch in transaction.branches.items():
            site = router.sites[site_id]
            if (
                site.status.is_up
                and branch.generation == site.generation
                and not router._local_map[site_id].keys().isdisjoint(
                    site.scheduler.graph.predecessors(branch.local_tid)
                )
            ):
                break
        else:
            return False
        stack = list(self.global_successors(gtid))
        seen = set(stack)
        while stack:
            node = stack.pop()
            for successor in self.global_successors(node):  # repro-lint: disable=REP002 (a yes/no reachability walk: visit order cannot change the answer)
                if successor == gtid:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return False

    def find_cycle_through(self, target: int) -> Optional[List[int]]:
        """Members of one union-graph cycle through ``target``, or ``None``.

        Plain reachability DFS from the target's successors back to the
        target, parents recorded for path reconstruction — the commit-time
        certification needs the members to pick its victim.
        """
        parent: Dict[int, Optional[int]] = {}
        stack: List[int] = []
        for successor in sorted(self.global_successors(target)):
            parent[successor] = None
            stack.append(successor)
        while stack:
            node = stack.pop()
            for successor in sorted(self.global_successors(node)):
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
    def retire_graph(self, mutations: int) -> None:
        """Fold a crashed scheduler's final mutation count into the gate."""
        self._retired_mutations += mutations

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
        period costs one integer sum; a detection pass costs one scan of the
        sites' edge-bearing nodes (see :meth:`_union_adjacency`).

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

    def _union_adjacency(self) -> Dict[int, List[int]]:
        """The union graph as ``gtid -> sorted successor gtids``, keys ascending.

        Only transactions owning an edge-bearing node of a live site's graph
        can have successors, so only those are expanded.  Empty when fewer
        than two sites hold an edge: one acyclic site graph under an
        injective map has no cycle.
        """
        router = self.router
        sources: Set[int] = set()
        edge_sites = 0
        for site in router.sites:
            if not site.status.is_up:
                continue
            local_map = router._local_map[site.site_id]
            edge_nodes = site.scheduler.graph.edge_sources()
            owners = [local_map[node] for node in edge_nodes if node in local_map]
            if owners:
                edge_sites += 1
                sources.update(owners)
        if edge_sites < 2:
            return {}
        return {gtid: sorted(self.global_successors(gtid)) for gtid in sorted(sources)}

    def _find_sweep_victim(self) -> Optional[int]:
        """The victim of the first abortable union-graph cycle, or ``None``.

        DFS over the union adjacency from its ``ACTIVE``/``PSEUDO_COMMITTED``
        transactions, oldest first; in the first cycle found that has an
        ``ACTIVE`` member, the youngest such member is the victim.  Cycles
        with no abortable member are skipped (see :meth:`sweep`) and the
        search continues.
        """
        adjacency = self._union_adjacency()
        transactions = self.router.transactions
        color: Dict[int, int] = {}  # 1 = on the DFS path, 2 = finished
        path: List[int] = []
        for root in adjacency:
            if root in color or transactions[root].status not in _LIVE:
                continue
            color[root] = 1
            path.append(root)
            stack = [(root, iter(adjacency[root]))]
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
                    elif state is None and successor in adjacency:
                        color[successor] = 1
                        path.append(successor)
                        stack.append((successor, iter(adjacency[successor])))
                        break
                else:
                    stack.pop()
                    path.pop()
                    color[node] = 2
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<UnionCycleDetector swept={self._swept_mutations} "
            f"retired={self._retired_mutations}>"
        )
