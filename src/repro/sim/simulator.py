"""The closed-queuing transaction-processing simulator (Section 5.1, Figure 3).

One :class:`Simulation` object models the whole system of the paper's Figure 3:

* a fixed population of terminals, each thinking for an exponential time and
  then submitting a transaction;
* a ready queue bounded by the multiprogramming level (``mpl_level``);
* a coordinator built by :mod:`repro.sim.routing` (``Simulation.router``):
  the recoverability- or commutativity-based scheduler of
  :mod:`repro.core.scheduler` (or the strict-2PL baseline) deciding, per
  operation, whether the request executes, blocks, or aborts the
  transaction.  One site that never fails is exactly the centralized system
  of the paper, and the simulator drives that scheduler directly; several
  sites (``site_count``, ``replication``), or one site that can crash, get
  a :class:`~repro.distributed.router.TransactionRouter` over per-site
  schedulers;
* scripted site crash/recover events (``failure_schedule``) whose meaning
  the selected ``replication_protocol`` decides: writers of a failed site
  abort and restart everywhere, while a recovered replica either stays
  unreadable until a committed write (available-copies) or catches up from
  a live copy at recovery time (quorum, primary-copy);
* a periodic union-graph sweep (multi-site runs only) that detects and
  breaks cross-site cycles closed during termination cascades, which the
  per-submit check cannot see;
* a pluggable commit protocol (``commit_protocol``) deciding when a
  distributed commit reports durable: the one-shot fan-out baseline, or
  2PC with commit-time cycle certification, W-ack durability under quorum
  replication, failure-triggered re-replication and an optional
  ``prepare_timeout``;
* a resource phase per executed operation (constant ``step_time`` under
  infinite resources; CPU then disk queueing under finite resources),
  charged through the coordinator to one shared global pool or to the domains
  of the sites that executed the operation's replicas
  (``resource_placement``), with a ``msg_time`` network delay on work
  routed away from the transaction's home site;
* immediate restart of aborted transactions at the end of the ready queue,
  re-executing the same operations;
* completion at pseudo-commit or commit, after which the issuing terminal
  starts thinking about its next transaction.

The simulator communicates with the scheduler through the listener interface:
grants of blocked requests, aborts chosen by the deadlock/cycle detector and
durable commits of pseudo-committed transactions all arrive as callbacks, and
the simulator reacts by scheduling zero-delay events so that it never re-enters
the scheduler from inside one of its callbacks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from ..core.backends import ConcurrencyControlBackend
from ..core.errors import SimulationError
from ..core.scheduler import (
    AbortReason,
    RequestHandle,
    SchedulerListener,
)
from ..core.specification import Event, Invocation
from ..core.transaction import TransactionStatus
from .engine import EventEngine
from .metrics import MetricsCollector, RunMetrics
from .params import SimulationParameters
from .random_source import RandomSource
from .resources import make_resource_charger
from .routing import CentralCoordinator, create_coordinator
from .terminals import Terminal
from .workload import TransactionTemplate, Workload, make_workload

__all__ = ["LogicalTransaction", "Simulation", "run_simulation"]

# Restart backoff for transactions stuck in repeated deadlock aborts (see
# Simulation.on_aborted).  The threshold is the number of attempts a logical
# transaction may burn before its restarts start backing off; the cap bounds
# the escalation at ``cap * step_time``.
_BACKOFF_ATTEMPTS = 8
_BACKOFF_CAP = 64

#: Enum members the completion and abort handlers read, bound once (an
#: ``Enum`` class attribute load costs about 100 ns, a module global 3).
_ABORTED = TransactionStatus.ABORTED
_PSEUDO_COMMITTED = TransactionStatus.PSEUDO_COMMITTED
_COMMITTED = TransactionStatus.COMMITTED
_SITE_UNAVAILABLE = AbortReason.SITE_UNAVAILABLE


@dataclass(slots=True)
class LogicalTransaction:
    """A terminal-submitted transaction, surviving across restarts.

    The scheduler sees a fresh transaction id per attempt; the logical
    transaction keeps the original submission time (response time includes
    restart work) and the fixed operation list.
    """

    logical_id: int
    terminal: Terminal
    template: TransactionTemplate
    submit_time: float
    #: ``len(template)``, cached at submission: the per-operation completion
    #: handler compares against it once per executed operation.
    total_steps: int = 0
    attempts: int = 0
    steps_done: int = 0
    scheduler_tid: Optional[int] = None
    completed: bool = False
    completion_time: Optional[float] = None
    slot_released: bool = False

    def next_step(self) -> Tuple[str, Invocation]:
        return self.template.steps[self.steps_done]


class Simulation(SchedulerListener):
    """One simulation run for a single parameter point and seed."""

    def __init__(
        self,
        params: SimulationParameters,
        workload_kind: str = "readwrite",
        workload: Optional[Workload] = None,
        backend: Optional["ConcurrencyControlBackend"] = None,
    ):
        self.params = params
        self.engine = EventEngine()
        # Event kinds for the simulator's producers, bound once here
        # (registration order is construction order, hence deterministic).
        # Each event is then a plain ``(kind, *payload)`` tuple drained
        # through the engine's dispatch table.
        self._kind_submit = self.engine.register_kind(self._submit)
        self._kind_op_finished = self.engine.register_kind(self._operation_finished)
        self._kind_fanout = self.engine.register_kind(self._complete_after_fanout)
        self._kind_restart = self.engine.register_kind(self._restart)
        self._kind_sweep = self.engine.register_kind(self._sweep)
        self._kind_site_event = self.engine.register_kind(self._site_event)
        self._kind_release_slot = self.engine.register_kind(self._release_slot)
        root_rng = RandomSource(params.seed)
        self.workload_rng = root_rng.spawn("workload")
        self.think_rng = root_rng.spawn("think")
        self.resource_rng = root_rng.spawn("resources")
        self.workload = workload or make_workload(params, self.workload_rng, workload_kind)
        # The scheduler itself for the centralized system, a router otherwise.
        self.router = create_coordinator(params, self.engine, backend=backend)
        self.router.add_listener(self)
        self.workload.register_objects(self.router)
        # The hardware: one shared pool (the paper's model) or one domain
        # per site, per ``params.resource_placement``.  The coordinator owns
        # the charging — the simulator only sees "this operation's physical
        # phase is done" — so hardware follows data placement.
        self.resources = make_resource_charger(self.engine, params, self.resource_rng)
        self.router.attach_resources(self.resources)
        self.terminals = [Terminal(terminal_id=i) for i in range(1, params.num_terminals + 1)]
        self.metrics = MetricsCollector()

        self.ready_queue: Deque[LogicalTransaction] = deque()
        self.active_count = 0
        self.completions = 0
        self._next_logical_id = 0
        self._by_scheduler_tid: Dict[int, LogicalTransaction] = {}
        self._measuring = params.warmup_completions == 0
        self._ran = False

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        """Run until ``total_completions`` transactions complete.

        The safety valve is progress-aware: the run may process any number
        of events overall, but raises if no transaction completes within a
        large fixed budget.  A genuine configuration error (a zero-delay
        event loop, a wedged scheduler) makes no progress and trips the
        valve, while a heavily thrashing high-contention run — which
        completes work, just slowly — is allowed to finish.  Each completion
        requests an engine stop (see ``_complete``), so the engine runs in
        between-completion segments; that changes neither which events run
        nor their order.

        A simulation runs once: a second call raises
        :class:`~repro.core.errors.SimulationError`.
        """
        if self._ran:
            raise SimulationError(
                "a Simulation runs once; build a new Simulation for another run"
            )
        self._ran = True
        self.metrics.begin_measurement(
            0.0,
            self.router.stats,
            self.resources.utilisation_summary(),
            self.router.replication_summary(),
            self.router.commit_summary(),
        )
        self._schedule_site_events()
        self._schedule_cycle_sweep()
        for terminal in self.terminals:
            terminal.think_then_submit(
                self.engine, self.think_rng, self.params.ext_think_time, self._kind_submit
            )
        stall_budget = max(
            2_000_000,
            200 * self.params.total_completions * self.params.max_length,
        )
        while not self._done():
            before = self.completions
            try:
                self.engine.run(max_events=stall_budget)
            except SimulationError as stall:
                if isinstance(self.router, CentralCoordinator):
                    raise
                raise SimulationError(f"{stall}\n{self.router.stall_report()}") from None
            if self.completions == before and not self._done():
                raise SimulationError(
                    "event queue drained before the stop condition was met"
                )
        return self.metrics.freeze(
            self.engine.now,
            self.router.stats,
            self.engine.events_processed,
            resource_summary=self.resources.utilisation_summary(),
            replication_summary=self.router.replication_summary(),
            commit_summary=self.router.commit_summary(),
        )

    def _schedule_site_events(self) -> None:
        """Turn the failure schedule into engine events (site crash/recover)."""
        for time, action, site_id in self.params.failure_schedule:
            self.engine.schedule_at(time, (self._kind_site_event, action, site_id))

    def _schedule_cycle_sweep(self) -> None:
        """Periodically sweep the union graph for late-closing cycles.

        Cross-site cycles closed during a termination cascade (a queued
        request re-blocked when another transaction's locks drain) are
        invisible to the per-submit check; the sweep catches them from a
        plain engine event — a context where aborting the victim is safe —
        every operation time.  The sweep is gated on the dependency graphs'
        mutation counters, so quiet periods cost one integer sum; with one
        site no event is ever scheduled and the centralized event stream is
        untouched.
        """
        if self.params.site_count <= 1:
            return
        self.engine.schedule(self.params.step_time, (self._kind_sweep,))

    def _sweep(self, member: tuple) -> None:
        """Typed handler: one union-graph sweep, then reschedule.

        The member carries no payload, so the very same tuple is re-scheduled
        for the next period — the recurring sweep allocates nothing at all.
        """
        if self._done():
            return
        self.router.sweep_global_cycles()
        self.engine.schedule(self.params.step_time, member)

    def _site_event(self, member: tuple) -> None:
        """Typed handler ``(kind, action, site_id)``: a scripted crash or
        recovery."""
        _, action, site_id = member
        site = self.router.sites[site_id]
        # Tolerate schedules that fail an already-failed site (or recover a
        # live one): the scripted scenario keeps its meaning, nothing breaks.
        if action == "fail" and site.status.is_up:
            self.router.fail_site(site_id)
        elif action == "recover" and not site.status.is_up:
            self.router.recover_site(site_id)

    def _done(self) -> bool:
        return self.completions >= self.params.total_completions

    # ------------------------------------------------------------------
    # Arrival, admission and the ready queue
    # ------------------------------------------------------------------
    def _submit(self, member: tuple) -> None:
        """Typed handler ``(kind, terminal)``: a terminal's think time
        expired and it submits a new transaction (Figure 3 arrival path)."""
        if self._done():
            return
        terminal: Terminal = member[1]
        self._next_logical_id += 1
        terminal.submitted += 1
        template = self.workload.next_transaction()
        transaction = LogicalTransaction(
            logical_id=self._next_logical_id,
            terminal=terminal,
            template=template,
            submit_time=self.engine.now,
            total_steps=len(template.steps),
        )
        if self.active_count < self.params.mpl_level:
            self._start(transaction)
        else:
            self.ready_queue.append(transaction)

    def _start(self, transaction: LogicalTransaction) -> None:
        """Begin a (possibly restarted) transaction at the scheduler."""
        self.active_count += 1
        transaction.attempts += 1
        transaction.steps_done = 0
        transaction.slot_released = False
        scheduler_transaction = self.router.begin(label=f"L{transaction.logical_id}")
        transaction.scheduler_tid = scheduler_transaction.tid
        self._by_scheduler_tid[scheduler_transaction.tid] = transaction
        self._issue_next_operation(transaction)

    def _admit_from_ready_queue(self) -> None:
        while self.ready_queue and self.active_count < self.params.mpl_level:
            self._start(self.ready_queue.popleft())

    def _release_slot(self, member: tuple) -> None:
        """Typed handler ``(kind, transaction, ...)``: free the transaction's
        multiprogramming slot exactly once.

        Scheduled when a held slot's durable commit arrives; the completion
        and restart paths call it directly with the member they drained,
        which carries the transaction in the same place.
        """
        transaction: LogicalTransaction = member[1]
        if transaction.slot_released:
            return
        transaction.slot_released = True
        self.active_count -= 1
        self._admit_from_ready_queue()

    # ------------------------------------------------------------------
    # Operation lifecycle
    # ------------------------------------------------------------------
    def _issue_next_operation(self, transaction: LogicalTransaction) -> None:
        object_name, invocation = transaction.next_step()
        assert transaction.scheduler_tid is not None
        handle = self.router.submit(transaction.scheduler_tid, object_name, invocation)
        if handle.executed:
            self._run_resource_phase(transaction)
        # BLOCKED: wait for on_granted.  ABORTED: on_aborted already scheduled
        # the restart — nothing to do here.

    def _run_resource_phase(self, transaction: LogicalTransaction) -> None:
        assert transaction.scheduler_tid is not None
        self.router.perform_step(
            transaction.scheduler_tid,
            (self._kind_op_finished, transaction, transaction.attempts),
        )

    def _operation_finished(self, member: tuple) -> None:
        """Typed handler ``(kind, transaction, attempt)``: the physical
        phase of one executed operation completed.

        This is the simulator's hottest handler (once per executed
        operation), so the per-event work is inlined into its frame: the
        staleness check — the attempt the phase belonged to was aborted
        while CPU/disk/network work was in flight, either already restarted
        (attempts moved on) or with the restart still queued
        (``scheduler_tid`` cleared by ``on_aborted``) — then the next
        operation's submit, or the commit once the template is exhausted.
        """
        transaction: LogicalTransaction = member[1]
        scheduler_tid = transaction.scheduler_tid
        if (
            transaction.attempts != member[2]
            or transaction.completed
            or scheduler_tid is None
        ):
            return
        steps_done = transaction.steps_done + 1
        transaction.steps_done = steps_done
        if steps_done < transaction.total_steps:
            object_name, invocation = transaction.template.steps[steps_done]
            handle = self.router.submit(scheduler_tid, object_name, invocation)
            if handle.executed:
                # The attempt is unchanged (checked above), so the drained
                # member is re-armed as the next phase's continuation.
                self.router.perform_step(scheduler_tid, member)
            # BLOCKED: wait for on_granted.  ABORTED: on_aborted already
            # scheduled the restart — nothing to do here.
            return
        # Commit fan-out: branches at sites other than the transaction's
        # home pay the network cost before the commit lands (zero without a
        # network model, in which case no event is scheduled at all).
        delay = self.router.commit_network_delay(scheduler_tid)
        if delay > 0:
            self.engine.schedule(delay, (self._kind_fanout, transaction, member[2]))
        else:
            self._complete(member)

    def _complete_after_fanout(self, member: tuple) -> None:
        """Typed handler ``(kind, transaction, attempt)``: commit fan-out
        network delay elapsed (same staleness rule as the phase handler)."""
        transaction: LogicalTransaction = member[1]
        if (
            transaction.attempts != member[2]
            or transaction.completed
            or transaction.scheduler_tid is None
        ):
            return
        self._complete(member)

    # ------------------------------------------------------------------
    # Completion (pseudo-commit or commit)
    # ------------------------------------------------------------------
    def _complete(self, member: tuple) -> None:
        """Commit the transaction of a drained ``(kind, transaction, attempt)``
        phase member whose template is exhausted."""
        transaction: LogicalTransaction = member[1]
        assert transaction.scheduler_tid is not None
        status = self.router.commit(transaction.scheduler_tid)
        if status is _ABORTED:
            # Two-phase certification found a dependency cycle and the
            # committing transaction was the victim: its on_aborted callback
            # already scheduled the restart; this attempt never completed.
            return
        transaction.completed = True
        transaction.completion_time = self.engine.now
        self.completions += 1
        # Hand control back to ``run`` before the next event.
        self.engine.request_stop()
        self._maybe_start_measuring()
        if self._measuring:
            self.metrics.record_completion(
                response_time=self.engine.now - transaction.submit_time,
                pseudo=status is _PSEUDO_COMMITTED,
            )
        transaction.terminal.completed += 1
        transaction.terminal.think_then_submit(
            self.engine, self.think_rng, self.params.ext_think_time, self._kind_submit
        )
        if status is _COMMITTED:
            self._by_scheduler_tid.pop(transaction.scheduler_tid, None)
            self._release_slot(member)
        elif not self.params.pseudo_commit_holds_slot:
            self._release_slot(member)
        # Otherwise the slot is held until the durable commit arrives through
        # the on_committed callback.

    def _maybe_start_measuring(self) -> None:
        if self._measuring:
            return
        if self.completions >= self.params.warmup_completions:
            self._measuring = True
            self.metrics.begin_measurement(
                self.engine.now,
                self.router.stats,
                self.resources.utilisation_summary(),
                self.router.replication_summary(),
                self.router.commit_summary(),
            )

    # ------------------------------------------------------------------
    # SchedulerListener callbacks (never re-enter the scheduler directly)
    # ------------------------------------------------------------------
    def on_granted(self, transaction_id: int, handle: RequestHandle, event: Event) -> None:
        transaction = self._by_scheduler_tid.get(transaction_id)
        if transaction is None or transaction.completed:
            return
        self._run_resource_phase(transaction)

    def on_aborted(self, transaction_id: int, reason: AbortReason) -> None:
        transaction = self._by_scheduler_tid.pop(transaction_id, None)
        if transaction is None or transaction.completed:
            return
        transaction.scheduler_tid = None
        # A transaction aborted because no live site could serve its operation
        # retries after one operation time rather than immediately: with the
        # needed copies still down it would otherwise spin through abort and
        # restart in zero simulated time.
        delay = self.params.step_time if reason is _SITE_UNAVAILABLE else 0.0
        # Deadlock-abort livelock breaker.  Templates are fixed per logical
        # transaction and victim selection is deterministic, so under heavy
        # contention a set of mutually conflicting transactions can re-form
        # the same deadlock cycle on every immediate restart, forever (seen
        # at mpl=8 over 24 objects).  After several failed attempts the
        # restart backs off by an escalating, attempt-derived delay, which
        # staggers the group and breaks the lock-step.  The delay is a pure
        # function of the attempt count — no RNG is consulted — and the
        # threshold is high enough that runs which make normal progress
        # replay bit-identically.
        if transaction.attempts > _BACKOFF_ATTEMPTS:
            over = transaction.attempts - _BACKOFF_ATTEMPTS
            delay = max(delay, self.params.step_time * min(over, _BACKOFF_CAP))
        self.engine.schedule(delay, (self._kind_restart, transaction))

    def on_committed(self, transaction_id: int) -> None:
        transaction = self._by_scheduler_tid.pop(transaction_id, None)
        if transaction is None:
            return
        if self.params.pseudo_commit_holds_slot and transaction.completed:
            self.engine.schedule(0.0, (self._kind_release_slot, transaction))

    # ------------------------------------------------------------------
    # Restarts
    # ------------------------------------------------------------------
    def _restart(self, member: tuple) -> None:
        """Typed handler ``(kind, transaction)``: requeue an aborted
        transaction at the end of the ready queue."""
        transaction: LogicalTransaction = member[1]
        if self._measuring:
            self.metrics.record_restart()
        self._release_slot(member)
        if self._done():
            return
        self.ready_queue.append(transaction)
        self._admit_from_ready_queue()


def run_simulation(
    params: SimulationParameters,
    workload_kind: str = "readwrite",
    backend: Optional[ConcurrencyControlBackend] = None,
) -> RunMetrics:
    """Convenience wrapper: build a :class:`Simulation` and run it."""
    return Simulation(params, workload_kind=workload_kind, backend=backend).run()
