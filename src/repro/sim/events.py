"""Event queue primitives for the discrete-event simulator.

The simulator is a classic event-driven design: a priority queue of
``(time, sequence, callback)`` entries.  The sequence number breaks ties so
that events scheduled for the same instant fire in FIFO order, which keeps
runs deterministic for a fixed random seed -- a property the tests rely on.

This queue is the hottest structure in the whole simulation (every
transaction stage is at least one heap operation), so the implementation is
deliberately lean:

* heap entries are plain ``(time, sequence, payload)`` tuples -- the unique
  sequence number guarantees tuple comparison never reaches the payload,
  so ordering costs two machine-level comparisons instead of a dataclass
  ``__lt__`` call;
* the payload is either a bare callback (``push_bare``, for the vast
  majority of events, which are never cancelled) or a ``__slots__``-based
  :class:`Event` handle (``push``, when the caller wants cancellation);
* a live (non-cancelled) counter makes ``__len__``/``__bool__`` O(1);
* cancelled entries are dropped lazily at the top of the heap, and the heap
  is compacted wholesale when more than half of it is cancelled, so a
  cancellation-heavy workload cannot make the heap grow without bound.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple, cast

EventCallback = Callable[[], None]

#: Compaction only kicks in above this heap size; tiny heaps are cheap to
#: scan and compacting them would thrash.
_COMPACT_MIN_SIZE = 64


class Event:
    """A scheduled callback: the cancellation handle returned by ``push``.

    The event itself never enters heap comparisons (the ``(time, sequence)``
    prefix of the heap tuple decides the order), so it carries no ordering
    dunders -- just the fields callers read and the ``cancel`` method.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled", "_queue")

    def __init__(self, time: float, sequence: int, callback: EventCallback,
                 queue: Optional["EventQueue"]) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event cancelled; the queue skips it when it surfaces."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._note_cancelled()


def _is_cancelled(payload: object) -> bool:
    # The exact-class test (not isinstance) keeps the hot loop to one
    # pointer comparison; mypy cannot narrow through it, hence the ignore.
    return payload.__class__ is Event and payload.cancelled  # type: ignore[attr-defined, no-any-return]


class EventQueue:
    """A time-ordered queue of events with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, object]] = []
        self._next_sequence = 0
        # Non-cancelled events still in the heap (O(1) len/bool).
        self._live = 0
        # Determinism-sanitizer hook (repro.analysis.dsan): called with
        # ``(time, sequence, callback)`` for every *executed* event.  Same
        # zero-overhead contract as the obs/ slots -- None by default, and
        # the simulator's fast loop never touches it unless armed.
        self.probe: Optional[Callable[[float, int, object], None]] = None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` at absolute time ``time``; returns a handle."""
        if time < 0:
            raise ValueError("event time must be non-negative, got %r" % (time,))
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event = Event(time, sequence, callback, self)
        heapq.heappush(self._heap, (time, sequence, event))
        self._live += 1
        return event

    def push_bare(self, time: float, callback: EventCallback) -> None:
        """Schedule a callback that will never be cancelled (no handle).

        Skips the :class:`Event` allocation; this is the fast path behind
        :meth:`Simulator.defer`, which never cancels.  Resource completions
        and client think times, which occur once or more per transaction,
        push the same bare ``(time, sequence, callback)`` entry onto
        ``_heap`` inline (bumping ``_next_sequence`` and ``_live`` the same
        way) to save this call's frame.
        """
        if time < 0:
            raise ValueError("event time must be non-negative, got %r" % (time,))
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        heapq.heappush(self._heap, (time, sequence, callback))
        self._live += 1

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> Optional[Event]:
        """Remove and return the next non-cancelled event, or None.

        Bare-callback entries are wrapped in an :class:`Event` so the return
        type is uniform; the simulator's main loop bypasses this method and
        consumes heap entries directly.
        """
        self._drop_cancelled()
        if not self._heap:
            return None
        time, sequence, payload = heapq.heappop(self._heap)
        self._live -= 1
        if isinstance(payload, Event):
            payload._queue = None
            return payload
        return Event(time, sequence, cast(EventCallback, payload), None)

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and _is_cancelled(heap[0][2]):
            heapq.heappop(heap)

    def _note_cancelled(self) -> None:
        """A pending event was cancelled: update the live count, maybe compact."""
        self._live -= 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN_SIZE and self._live * 2 < len(heap):
            # Compact IN PLACE: the simulator's run loop holds a reference
            # to this list, so rebinding self._heap would silently split the
            # queue in two mid-run.
            heap[:] = [entry for entry in heap if not _is_cancelled(entry[2])]
            heapq.heapify(heap)

    def clear(self) -> None:
        for entry in self._heap:
            payload = entry[2]
            if isinstance(payload, Event):
                payload._queue = None
        self._heap.clear()
        self._live = 0
