"""Buffer pool: an LRU approximation of the database page cache.

The phenomenon the paper is built around is memory contention in the
database buffer cache: when the combined working sets of the transaction
types executing at a replica exceed its main memory, pages are continuously
evicted and re-read and the replica becomes disk-bound (Section 1 and 5.2).

Tracking individual 8 KB pages of a multi-gigabyte database would be far too
expensive for a simulator that runs hundreds of configurations, so this
buffer pool tracks *fractional residency per relation hot set*: for every
(relation, hot-set) pair it records how many bytes of that hot set are
currently cached, and it maintains LRU ordering across relations.  On a
random access the expected number of page misses is the access size times
the non-resident fraction of the hot set; on a sequential scan, the miss
volume is the non-resident part of the whole relation.  Evictions shave
bytes off the least-recently-used relations.

This approximation reproduces the behaviours the paper relies on:

* when the sum of hot sets on a replica fits in memory, the steady-state
  miss rate approaches zero (in-memory execution);
* when it does not, the steady-state miss rate approaches
  ``1 - capacity / combined_hot_set`` for random accesses, i.e. the replica
  does disk I/O on most transactions;
* a large sequential scan displaces other relations' pages abruptly, which
  is exactly the "large request wipes out memory" effect that breaks LARD.

Implementation notes: ``access`` is the single hottest function of the whole
simulator (it runs several times per transaction), so per-relation state
lives in one ``__slots__`` record reached through a single ``OrderedDict``
lookup, and the pool keeps a running residency total so neither the
accessors nor the eviction trigger ever re-sum the relation map.  Two more
fast-path facts are maintained incrementally: the most recently used
relation (so the common access-the-same-relation-again case skips the
``move_to_end`` re-probe entirely), and the combined hot-set watermark
(``_hot_total``): while the combined hot sets fit in capacity the pool can
never overflow -- per-relation residency is capped at the hot watermark --
so the eviction trigger is short-circuited to one attribute test instead of
being evaluated per access.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional


class BufferPoolStats:
    """Cumulative counters for diagnosis and the disk-I/O tables.

    ``__slots__``-based: the counters are bumped on every buffer access.
    """

    __slots__ = ("bytes_requested", "bytes_missed", "accesses", "scans",
                 "evicted_bytes")

    def __init__(self) -> None:
        self.bytes_requested = 0.0
        self.bytes_missed = 0.0
        self.accesses = 0
        self.scans = 0
        self.evicted_bytes = 0.0

    @property
    def hit_ratio(self) -> float:
        if self.bytes_requested <= 0:
            return 1.0
        return 1.0 - (self.bytes_missed / self.bytes_requested)


class _RelationState:
    """Cached-bytes and hot-set watermark of one relation.

    The state (including the ``hot_max`` watermark) is dropped when a
    relation is fully evicted.  That is safe for the access path: the
    watermark cap can only bind at or above the *current* access's hot set
    (``new_resident <= hot_set_bytes <= hot_max`` always holds), so a
    re-learned, smaller watermark never shrinks anything actually cached --
    it only means introspection (``hot_set_bytes_of``/``tracked_relations``)
    forgets relations whose bytes are all gone.
    """

    __slots__ = ("resident", "hot_max", "pow_resident", "pow_hot", "pow_hit")

    def __init__(self, resident: float, hot_max: float) -> None:
        self.resident = resident
        self.hot_max = hot_max
        # Memo of the last `(resident / hot) ** skew` evaluated for this
        # relation: the exact inputs and the result.  Steady-state access
        # sequences re-evaluate the curve at an unchanged operating point
        # (resident only moves when there were misses), so caching one
        # point per relation removes most libm pow calls; the exact float
        # compare of both inputs *is* the invalidation, which keeps seeded
        # outputs bit-identical.  -1.0 can never match a real input.
        self.pow_resident = -1.0
        self.pow_hot = -1.0
        self.pow_hit = 0.0


class BufferPool:
    """Fractional-residency LRU buffer pool.

    Args:
        capacity_bytes: usable buffer memory of the replica (the paper
            subtracts 70 MB of OS / PostgreSQL / proxy overhead from the
            machine's physical memory before handing the figure to the bin
            packer; callers are expected to do the same here).
    """

    __slots__ = ("capacity_bytes", "_capacity_f", "skew", "_relations",
                 "_resident_total", "_hot_total", "_maybe_evict", "_mru",
                 "stats", "on_evict")

    def __init__(self, capacity_bytes: int, skew: float = 0.35) -> None:
        if capacity_bytes <= 0:
            raise ValueError("buffer pool capacity must be positive")
        if not 0.0 < skew <= 1.0:
            raise ValueError("skew exponent must be in (0, 1]")
        self.capacity_bytes = capacity_bytes
        self._capacity_f = float(capacity_bytes)
        #: Access-popularity skew: with a fraction ``f`` of a hot set resident,
        #: the probability that an access hits the cache is ``f ** skew``.
        #: ``skew=1`` models uniformly random accesses; real OLTP accesses are
        #: Zipf-like, so caching half of a hot set captures more than half
        #: of the accesses.  0.35 corresponds to a strongly skewed OLTP workload.
        self.skew = skew
        # relation name -> _RelationState; insertion order is LRU order
        # (oldest first, most recently used last).  States are mutated in
        # place so the dict entry itself is written only on (re)insertion.
        self._relations: "OrderedDict[str, _RelationState]" = OrderedDict()
        # Running total of resident bytes across relations.  Maintained
        # incrementally so resident_bytes/free_bytes and the eviction
        # trigger are O(1) instead of re-summing the map on every access.
        self._resident_total = 0.0
        # Combined hot-set watermark (sum of every tracked relation's
        # hot_max).  Residency per relation is capped at its watermark, so
        # while this fits in capacity the pool cannot overflow and
        # _maybe_evict short-circuits the per-access eviction trigger.
        self._hot_total = 0.0
        self._maybe_evict = False
        # Name of the relation currently at the MRU end of the LRU order
        # (None when unknown).  Lets the hottest pattern -- consecutive
        # accesses to the same relation -- skip the move_to_end re-probe.
        self._mru: Optional[str] = None
        self.stats = BufferPoolStats()
        #: Optional callback(freed_bytes) fired after each eviction pass
        #: (observability).  None by default: the eviction path pays one
        #: attribute test when nothing is attached.
        self.on_evict: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> float:
        """Total bytes currently cached."""
        return self._resident_total

    @property
    def free_bytes(self) -> float:
        return max(0.0, self.capacity_bytes - self.resident_bytes)

    def resident_bytes_of(self, relation: str) -> float:
        state = self._relations.get(relation)
        return state.resident if state is not None else 0.0

    def resident_relations(self) -> List[str]:
        """Relations with any cached bytes, LRU (oldest) first."""
        return [name for name, state in self._relations.items() if state.resident > 0]

    def hot_set_bytes_of(self, relation: str) -> float:
        """Largest hot set ever observed for ``relation`` (0 if untracked)."""
        state = self._relations.get(relation)
        return state.hot_max if state is not None else 0.0

    def tracked_relations(self) -> List[str]:
        """Relations with pool state (LRU order).

        A relation whose bytes were all evicted (or invalidated) has its
        state dropped and is no longer listed; it reappears on its next
        access.
        """
        return list(self._relations.keys())

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def access(self, relation: str, bytes_needed: float, hot_set_bytes: float) -> float:
        """Random access of ``bytes_needed`` bytes within a hot set.

        Returns the number of bytes that must be read from disk (expected
        miss volume).  The cached fraction of the hot set grows by the miss
        volume, displacing least-recently-used data if necessary.
        """
        if bytes_needed < 0:
            raise ValueError("bytes_needed must be non-negative")
        if hot_set_bytes <= 0:
            return 0.0
        if bytes_needed > hot_set_bytes:
            bytes_needed = hot_set_bytes

        relations = self._relations
        state = relations.get(relation)
        if state is None:
            relations[relation] = state = _RelationState(0.0, hot_set_bytes)
            hot_total = self._hot_total + hot_set_bytes
            self._hot_total = hot_total
            self._maybe_evict = hot_total > self._capacity_f
            self._mru = relation        # inserted at the MRU end
            resident = 0.0
        else:
            resident = state.resident
            if hot_set_bytes > state.hot_max:
                hot_total = self._hot_total + (hot_set_bytes - state.hot_max)
                self._hot_total = hot_total
                self._maybe_evict = hot_total > self._capacity_f
                state.hot_max = hot_set_bytes
            if relation != self._mru:
                relations.move_to_end(relation)
                self._mru = relation
        # hit fraction = min(1, resident/hot) ** skew, with the exact 0 / 1
        # endpoints short-circuited (x**skew is by far the costliest op here
        # and steady-state accesses to a fully resident hot set are common).
        if resident >= hot_set_bytes:
            miss_bytes = 0.0
        else:
            if resident > 0.0:
                # Exact one-point memo per relation (see _RelationState):
                # at a pinned operating point -- residency capped by pool
                # capacity or the hot-set watermark -- successive accesses
                # re-evaluate pow at identical inputs.
                if resident == state.pow_resident and hot_set_bytes == state.pow_hot:
                    hit_fraction = state.pow_hit
                else:
                    hit_fraction = (resident / hot_set_bytes) ** self.skew
                    state.pow_resident = resident
                    state.pow_hot = hot_set_bytes
                    state.pow_hit = hit_fraction
                miss_bytes = bytes_needed * (1.0 - hit_fraction)
            else:
                miss_bytes = bytes_needed

            # Bring the missed bytes into the cache.  Residency is capped at
            # the largest hot set ever observed for the relation (not this
            # access's hot set -- a narrow access must never shrink what is
            # cached) and at the pool capacity.
            new_resident = resident + miss_bytes
            if new_resident > state.hot_max:
                new_resident = state.hot_max
            if new_resident > self._capacity_f:
                new_resident = self._capacity_f
            state.resident = new_resident
            self._resident_total += new_resident - resident
            if self._maybe_evict and self._resident_total > self.capacity_bytes:
                self._evict_to_capacity(protect=relation)

        stats = self.stats
        stats.accesses += 1
        stats.bytes_requested += bytes_needed
        stats.bytes_missed += miss_bytes
        return miss_bytes

    def scan(self, relation: str, relation_bytes: float) -> float:
        """Sequential scan of the whole relation.

        Returns the miss volume (the non-resident part of the relation).
        After the scan the relation is fully resident up to pool capacity.
        """
        if relation_bytes <= 0:
            return 0.0
        relations = self._relations
        state = relations.get(relation)
        if state is None:
            relations[relation] = state = _RelationState(0.0, relation_bytes)
            hot_total = self._hot_total + relation_bytes
            self._hot_total = hot_total
            self._maybe_evict = hot_total > self._capacity_f
            self._mru = relation
            resident = 0.0
        else:
            resident = state.resident
            if relation_bytes > state.hot_max:
                hot_total = self._hot_total + (relation_bytes - state.hot_max)
                self._hot_total = hot_total
                self._maybe_evict = hot_total > self._capacity_f
                state.hot_max = relation_bytes
            if relation != self._mru:
                relations.move_to_end(relation)
                self._mru = relation
        miss_bytes = max(0.0, relation_bytes - resident)

        new_resident = min(relation_bytes, self._capacity_f)
        state.resident = new_resident
        self._resident_total += new_resident - resident
        if self._maybe_evict and self._resident_total > self.capacity_bytes:
            self._evict_to_capacity(protect=relation)

        stats = self.stats
        stats.accesses += 1
        stats.scans += 1
        stats.bytes_requested += relation_bytes
        stats.bytes_missed += miss_bytes
        return miss_bytes

    def invalidate(self, relation: str) -> float:
        """Drop all cached bytes of a relation (e.g. the table was dropped
        at this replica because update filtering made it unnecessary).

        Returns the number of bytes freed.
        """
        relations = self._relations
        state = relations.pop(relation, None)
        freed = state.resident if state is not None else 0.0
        if relations:
            self._resident_total -= freed
            if state is not None:
                hot_total = self._hot_total - state.hot_max
                self._hot_total = hot_total
                self._maybe_evict = hot_total > self._capacity_f
            if relation == self._mru:
                self._mru = None
        else:
            # Re-anchor the running totals whenever the pool empties, so
            # float rounding from incremental updates can never accumulate.
            self._resident_total = 0.0
            self._hot_total = 0.0
            self._maybe_evict = False
            self._mru = None
        return freed

    def warm(self, relation: str, resident_bytes: float, hot_set_bytes: Optional[float] = None) -> None:
        """Pre-populate the cache (used by tests and warm-start experiments)."""
        hot = hot_set_bytes if hot_set_bytes is not None else resident_bytes
        if hot <= 0:
            return
        relations = self._relations
        state = relations.get(relation)
        if state is None:
            relations[relation] = state = _RelationState(0.0, hot)
            hot_total = self._hot_total + hot
            self._hot_total = hot_total
            self._maybe_evict = hot_total > self._capacity_f
            self._mru = relation
            previous = 0.0
        else:
            previous = state.resident
            if hot > state.hot_max:
                hot_total = self._hot_total + (hot - state.hot_max)
                self._hot_total = hot_total
                self._maybe_evict = hot_total > self._capacity_f
                state.hot_max = hot
            if relation != self._mru:
                relations.move_to_end(relation)
                self._mru = relation
        new_resident = min(float(resident_bytes), hot, self._capacity_f)
        state.resident = new_resident
        self._resident_total += new_resident - previous
        if self._maybe_evict and self._resident_total > self.capacity_bytes:
            self._evict_to_capacity(protect=relation)

    def clear(self) -> None:
        """Empty the pool (cold restart of a replica)."""
        self._relations.clear()
        self._resident_total = 0.0
        self._hot_total = 0.0
        self._maybe_evict = False
        self._mru = None

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _evict_to_capacity(self, protect: Optional[str] = None) -> None:
        """Evict bytes from least-recently-used relations until under capacity.

        The most recently accessed relation (``protect``) is evicted last,
        and only if it alone exceeds the pool capacity.
        """
        excess = self._resident_total - self.capacity_bytes
        if excess <= 0:
            return
        relations = self._relations
        stats = self.stats
        evicted_before = stats.evicted_bytes
        emptied = None
        # Iterate in place (LRU first); state mutation during iteration is
        # fine, deletions are deferred until after the loop.  Relative order
        # of the surviving relations is unchanged either way.
        for name, state in relations.items():
            if excess <= 0:
                break
            if name == protect:
                continue
            resident = state.resident
            evicted = resident if resident < excess else excess
            remaining = resident - evicted
            state.resident = remaining
            self._resident_total -= evicted
            excess -= evicted
            stats.evicted_bytes += evicted
            if remaining <= 0:
                if emptied is None:
                    emptied = [name]
                else:
                    emptied.append(name)
        if excess > 0 and protect is not None:
            state = relations.get(protect)
            if state is not None:
                # The protected relation alone overflows the pool: cap it.
                resident = state.resident
                evicted = resident if resident < excess else excess
                remaining = resident - evicted
                state.resident = remaining
                self._resident_total -= evicted
                stats.evicted_bytes += evicted
                if remaining <= 0:
                    # Fully evicted: drop the state like every other
                    # relation (the _RelationState drop-on-empty contract),
                    # instead of leaving a resident == 0 entry behind in
                    # the LRU map and tracked_relations().
                    if emptied is None:
                        emptied = [protect]
                    else:
                        emptied.append(protect)
                    if self._mru == protect:
                        self._mru = None
        if emptied is not None:
            hot_total = self._hot_total
            for name in emptied:
                hot_total -= relations.pop(name).hot_max
            if not relations:
                # Re-anchor the running totals on a fully emptied pool so
                # incremental float rounding cannot accumulate.
                self._resident_total = 0.0
                hot_total = 0.0
            self._hot_total = hot_total
            self._maybe_evict = hot_total > self._capacity_f
        on_evict = self.on_evict
        if on_evict is not None:
            freed = stats.evicted_bytes - evicted_before
            if freed > 0:
                on_evict(freed)
