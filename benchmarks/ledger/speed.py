"""Host speed reference: a fixed loop timed at regular CPU intervals.

On a shared machine the CPU time of identical work drifts by up to 2x over
minutes, as other tenants load the same physical cores; no window a run can
afford averages that out.  The drift slows the simulator and any other
memory-bound Python code alike, so the benchmark also times a fixed
reference loop every :data:`INTERVAL_S` of process CPU time, from a
``SIGPROF`` interval timer, while the workload runs.  Each sample stands for
one interval of CPU time spent at the speed it measured, so a repetition's
host cost in reference loops ("ref") is ``INTERVAL_S / duration`` summed
over its samples: its CPU time divided by the harmonic mean of the
reference durations.  That figure stays put while the machine's speed
moves, and a sample stretched by preemption barely moves it.

The loop does what the simulator does most -- heap pushes and pops of
tuples, dictionary lookups, and method calls on slotted objects -- over an
arena of a few megabytes reached in pseudo-random order, so it meets the
same cache pressure (a loop over a few cached objects tracked the drift
about half as well).  The handler touches no simulator state, so simulated
outputs are unchanged; its time is subtracted from the repetition's CPU
time, and the arena's resident size from the peak RSS.

Set-up is too short to sample during, so each set-up process measures the
reference right after it and scales its CPU time to nominal speed
(:data:`NOMINAL_REF_S`).
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Process CPU time between two reference samples.
INTERVAL_S = 0.05
#: The reference duration that defines "nominal speed": set-up time is
#: reported in seconds at that speed.
NOMINAL_REF_S = 1e-3
ARENA_SIZE = 1 << 16
TABLE_SIZE = 1 << 14


class _Entry:
    __slots__ = ("key", "total")

    def __init__(self, key: int) -> None:
        self.key = key
        self.total = 0.0

    def add(self, amount: float) -> float:
        self.total += amount
        return self.total


class _Arena:
    def __init__(self) -> None:
        self.entries = [_Entry(i) for i in range(ARENA_SIZE)]
        self.table: Dict[int, _Entry] = {
            i * 7919: self.entries[i] for i in range(TABLE_SIZE)}


def reference_loop(arena: _Arena, iterations: int = 800) -> int:
    """A fixed amount of simulator-like work (about a millisecond)."""
    heap: List[Tuple[float, int]] = []
    entries = arena.entries
    table = arena.table
    state = 12345
    for i in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        entry = entries[state & (ARENA_SIZE - 1)]
        other = table.get(((state >> 3) & (TABLE_SIZE - 1)) * 7919)
        heapq.heappush(heap, (entry.add(other.total if other else 1.0), i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(heap)


def resident_bytes() -> int:
    """Current resident set size of this process (Linux)."""
    import resource
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize()


def measure_reference(samples: int = 25) -> float:
    """Harmonic mean duration of the reference loop, measured now."""
    arena = _Arena()
    durations = []
    for _ in range(samples):
        start = time.perf_counter_ns()
        reference_loop(arena)
        durations.append(time.perf_counter_ns() - start)
    return statistics.harmonic_mean(durations) / 1e9


class SpeedProbe:
    """Samples the reference loop while a repetition runs."""

    def __init__(self, exclude: Optional[Callable[[int], None]] = None
                 ) -> None:
        #: Told the nanoseconds of each sample, so a span probe can keep
        #: them out of the span they interrupted.
        self._exclude = exclude
        before = resident_bytes()
        self._arena = _Arena()
        #: Resident bytes the arena added, to take out of the peak RSS.
        self.arena_bytes = max(0, resident_bytes() - before)
        self._samples_ns: List[int] = []

    def _sample(self, signum: int, frame: Optional[object]) -> None:
        start = time.perf_counter_ns()
        reference_loop(self._arena)
        elapsed = time.perf_counter_ns() - start
        self._samples_ns.append(elapsed)
        if self._exclude is not None:
            self._exclude(elapsed)

    def start(self) -> None:
        self._samples_ns.clear()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> Tuple[float, float, int]:
        """Stop sampling; returns (harmonic mean of the reference durations
        in seconds, seconds spent in the reference loop, number of
        samples)."""
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        samples = self._samples_ns
        spent = sum(samples) / 1e9
        if not samples:
            # A repetition shorter than one interval: sample once now.
            self._sample(signal.SIGPROF, None)
        return (statistics.harmonic_mean(samples) / 1e9, spent,
                len(samples))
