"""A minimal discrete-event simulation engine.

The closed-queuing model of Section 5.1 is driven by a classic event loop: a
priority queue of ``(time, sequence, payload)`` entries, a simulation clock,
and a stop flag.  Nothing here is specific to concurrency control; the
engine is reused by the resource model (CPU/disk service completions), the
terminals (think-time expirations), and the simulator itself.

Events sharing one exact timestamp are **batched**: a run of consecutively
scheduled events landing on the same time — a burst of simultaneous resource
grants after a termination cascade, a round of unblock retries — shares one
heap entry whose payload is the list of members in scheduling order.  The
sequence counter numbers batches in creation order and a batch only ever
receives appends while it is the most recently created entry, so list
position *is* scheduling order and the execution order is identical to a
heap of individual ``(time, sequence)`` entries; the burst costs one heap
push/pop total instead of one each, and a solitary event costs exactly what
it used to.
The drain loop keeps its position in the popped batch in locals and writes
it back once, when it returns or a handler raises, so a stop or an
exception in the middle of a batch leaves the rest of the batch queued.

Every event is a **typed member**: a producer registers an integer event
*kind* with a handler once, at construction (:meth:`EventEngine.register_kind`),
and then schedules plain tuples ``(kind, *payload)``.  The drain loop routes
each member through the kind-indexed dispatch table — one handler call that
receives the whole member and unpacks its payload in the same frame — so an
event allocates one tuple and no function object.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..core.errors import SimulationError

__all__ = ["EventEngine"]

#: A typed member's handler: receives the whole ``(kind, *payload)`` tuple.
KindHandler = Callable[[tuple], None]


class EventEngine:
    """Priority-queue driven simulation clock."""

    def __init__(self) -> None:
        #: One heap entry per batch; the payload list holds the batch's
        #: events in scheduling (= sequence) order.
        self._queue: List[Tuple[float, int, List[tuple]]] = []
        #: The most recently created batch and its timestamp.  A schedule
        #: call landing on the same time appends here (no heap traffic);
        #: anything else — including a pop of this very batch — retires it,
        #: so a batch is never appended to out of sequence order.
        self._open_batch: Optional[List[tuple]] = None
        self._open_time = 0.0
        #: The last batch popped from the heap (None before the first pop)
        #: and the index of its next member: the stop flag is consulted
        #: between members, exactly as it was between heap pops.
        self._batch: Optional[List[tuple]] = None
        self._batch_index = 0
        #: Heap tie-breaker: one per pushed batch, so equal times pop FIFO.
        self._sequence = 0
        self.now = 0.0
        self.events_processed = 0
        #: Cooperative stop flag for :meth:`run` (set by
        #: :meth:`request_stop` from inside a handler).
        self._stop = False
        #: The kind-indexed dispatch table: ``handlers[kind](member)`` drains
        #: a member.  Filled only by :meth:`register_kind`.
        self.handlers: List[KindHandler] = []

    # ------------------------------------------------------------------
    # Typed-member registration
    # ------------------------------------------------------------------
    def register_kind(self, handler: KindHandler) -> int:
        """Register a producer's handler; returns its event kind.

        The returned integer identifies the producer in every typed member
        it schedules: a member ``(kind, *payload)`` is drained as
        ``handler(member)``.  Registration order must be deterministic
        (construction order is), since the kind integers travel inside
        pinned event streams.  A handler registered before keeps its kind:
        shared module-level handlers (the resource stages) take one slot.
        """
        if handler not in self.handlers:
            self.handlers.append(handler)
        return self.handlers.index(handler)

    def dispatch(self, member: tuple) -> None:
        """Invoke one typed member synchronously (outside the drain loop).

        For a continuation that completes inside another handler's frame
        (the last branch of a replica fan-out).
        """
        self.handlers[member[0]](member)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, member: tuple) -> None:
        """Schedule ``member`` to drain ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} seconds in the past")
        time = self.now + delay
        batch = self._open_batch
        if batch is not None and time == self._open_time:
            batch.append(member)
        else:
            self._sequence += 1
            batch = [member]
            self._open_batch = batch
            self._open_time = time
            heapq.heappush(self._queue, (time, self._sequence, batch))

    def schedule_at(self, time: float, member: tuple) -> None:
        """Schedule ``member`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event at {time} before the current time {self.now}"
            )
        batch = self._open_batch
        if batch is not None and time == self._open_time:
            batch.append(member)
        else:
            self._sequence += 1
            batch = [member]
            self._open_batch = batch
            self._open_time = time
            heapq.heappush(self._queue, (time, self._sequence, batch))

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next event.  Returns False when the queue is empty."""
        return self._drain(1) == 1

    def request_stop(self) -> None:
        """Make the active :meth:`run` return before the next event."""
        self._stop = True

    def run(self, max_events: Optional[int] = None) -> None:
        """Process events until :meth:`request_stop` fires or the queue drains.

        The flag is consulted between every two events, so a handler
        requesting a stop halts the run before the next event.  Draining the
        queue without a stop request returns normally; the caller decides
        whether that is an error.  ``max_events`` is a safety valve against
        configuration errors: that many events without a stop request raise
        rather than loop forever.
        """
        if self._drain(max_events) == max_events and not self._stop:
            raise SimulationError(
                f"simulation exceeded the safety limit of {max_events} events"
            )

    def _drain(self, limit: Optional[int]) -> int:
        """The drain loop: pop a batch, dispatch its members in order.

        Runs until a handler requests a stop, the queue drains, or ``limit``
        events have run; returns how many ran.  This method *is* the
        simulation's innermost loop, so the batch cursor and the count live
        in locals and reach the instance once, on the way out.  A member is
        counted before it runs; one that raises is not run again.
        """
        self._stop = False
        queue = self._queue
        heappop = heapq.heappop
        handlers = self.handlers
        batch = self._batch
        index = self._batch_index
        # A popped batch never grows (it left ``_open_batch`` at pop time),
        # so its end is a fixed index.
        size = 0 if batch is None else len(batch)
        processed = 0
        try:
            while not self._stop and processed != limit:
                if index == size:
                    if not queue:
                        break
                    self.now, _, batch = heappop(queue)
                    if batch is self._open_batch:
                        self._open_batch = None
                    index = 0
                    size = len(batch)
                member = batch[index]  # type: ignore[index]
                index += 1
                processed += 1
                handlers[member[0]](member)
        finally:
            self._batch = batch
            self._batch_index = index
            self.events_processed += processed
        return processed

    def pending(self) -> int:
        """Number of events still queued."""
        count = sum(len(members) for _, _, members in self._queue)
        if self._batch is not None:
            count += len(self._batch) - self._batch_index
        return count
