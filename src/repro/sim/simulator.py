"""Discrete-event simulator core.

A minimal, fast event loop: components schedule callbacks at future
simulated times and the simulator executes them in time order.  All
behaviour of the replicated system (clients thinking, CPUs and disks
serving, the certifier responding, the load balancer re-allocating
replicas) is expressed as events, so simulated time is completely decoupled
from wall-clock time and a 6000-second experiment such as Figure 6 runs in
seconds.

Two scheduling flavours exist: :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` return a cancellation handle, while
:meth:`Simulator.defer` / :meth:`Simulator.defer_at` are the allocation-free
fast path for callbacks that are never cancelled (the overwhelming majority;
resource completions and client think times push the same bare heap entry
inline, see :meth:`EventQueue.push_bare`).  Both flavours share one queue
and one time order.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.sim.events import Event, EventCallback, EventQueue


class Simulator:
    """The event loop.

    Components hold a reference to the simulator and use :meth:`schedule` /
    :meth:`schedule_at` (or the handle-free :meth:`defer` variants).  Time
    only advances inside :meth:`run_until` / :meth:`run`.
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now: float = 0.0
        self.events_processed: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative, got %r" % (delay,))
        return self.queue.push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(
                "cannot schedule in the past (now=%.6f, requested=%.6f)" % (self.now, time)
            )
        return self.queue.push(time, callback)

    def defer(self, delay: float, callback: EventCallback) -> None:
        """Like :meth:`schedule`, without a cancellation handle (fast path)."""
        if delay < 0:
            raise ValueError("delay must be non-negative, got %r" % (delay,))
        self.queue.push_bare(self.now + delay, callback)

    def defer_at(self, time: float, callback: EventCallback) -> None:
        """Like :meth:`schedule_at`, without a cancellation handle (fast path)."""
        if time < self.now:
            raise ValueError(
                "cannot schedule in the past (now=%.6f, requested=%.6f)" % (self.now, time)
            )
        self.queue.push_bare(time, callback)

    def schedule_periodic(self, interval: float, callback: Callable[[], None],
                          start_delay: Optional[float] = None) -> None:
        """Run ``callback`` every ``interval`` seconds until the run ends."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        first_delay = interval if start_delay is None else start_delay

        def tick() -> None:
            callback()
            self.defer(interval, tick)

        self.defer(first_delay, tick)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise RuntimeError("event queue produced an event in the past")
        self.now = event.time
        hook = self.queue.probe
        if hook is not None:
            hook(event.time, event.sequence, event.callback)
        event.callback()
        self.events_processed += 1
        return True

    def run_until(self, end_time: float) -> None:
        """Run events until simulated time reaches ``end_time``.

        Events scheduled exactly at ``end_time`` are executed; the clock
        never advances past ``end_time`` even if later events remain queued.

        This is the simulation's innermost loop: it consumes heap entries
        directly (callbacks are stored bare unless a cancellation handle was
        requested) rather than going through ``EventQueue.pop``.
        """
        if end_time < self.now:
            raise ValueError("end_time lies in the past")
        queue = self.queue
        hook = queue.probe
        if hook is not None:
            # Armed only by the determinism sanitizer; the fast loop below
            # stays byte-identical (and branch-free on the slot) otherwise.
            self._run_until_probed(end_time, hook)
            return
        heap = queue._heap
        heappop = heapq.heappop
        event_class = Event
        processed = 0
        # Heap payloads are typed ``object`` (bare callback or Event); the
        # exact-class test below is the runtime narrowing mypy cannot see,
        # and an isinstance here would slow the innermost loop.
        while heap:
            entry = heap[0]
            payload = entry[2]
            if payload.__class__ is event_class:
                if payload.cancelled:  # type: ignore[attr-defined]
                    heappop(heap)
                    continue
                if entry[0] > end_time:
                    break
                heappop(heap)
                queue._live -= 1
                payload._queue = None  # type: ignore[attr-defined]
                self.now = entry[0]
                payload.callback()  # type: ignore[attr-defined]
            else:
                if entry[0] > end_time:
                    break
                heappop(heap)
                queue._live -= 1
                self.now = entry[0]
                payload()  # type: ignore[operator]
            processed += 1
        self.events_processed += processed
        self.now = max(self.now, end_time)

    def _run_until_probed(self, end_time: float,
                          hook: Callable[[float, int, object], None]) -> None:
        """The :meth:`run_until` loop with the dsan probe armed.

        A separate method so the unprobed fast path carries no per-event
        branch; the event order, clock updates and ``events_processed``
        accounting are identical to :meth:`run_until`.
        """
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        event_class = Event
        processed = 0
        while heap:
            entry = heap[0]
            payload = entry[2]
            if payload.__class__ is event_class:
                if payload.cancelled:  # type: ignore[attr-defined]
                    heappop(heap)
                    continue
                if entry[0] > end_time:
                    break
                heappop(heap)
                queue._live -= 1
                payload._queue = None  # type: ignore[attr-defined]
                self.now = entry[0]
                hook(entry[0], entry[1], payload.callback)  # type: ignore[attr-defined]
                payload.callback()  # type: ignore[attr-defined]
            else:
                if entry[0] > end_time:
                    break
                heappop(heap)
                queue._live -= 1
                self.now = entry[0]
                hook(entry[0], entry[1], payload)
                payload()  # type: ignore[operator]
            processed += 1
        self.events_processed += processed
        self.now = max(self.now, end_time)

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` is hit)."""
        processed = 0
        while self.step():
            processed += 1
            if max_events is not None and processed >= max_events:
                break
