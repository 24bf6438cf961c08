"""Differential test: the one-pass buffer pool against a naive reference model.

:class:`ReferencePool` below is a deliberately simple fractional-residency
LRU pool written from the :mod:`repro.storage.buffer_pool` module docstring.
It keeps the LRU order as a plain list of ``[name, resident, hot_max]``
entries (oldest first), re-sums the resident total on every operation, and
evicts by walking the list, with no running totals, no watermark
short-circuit, no MRU hint, no pow memo and no inlined victim:

* an access of ``b`` bytes (capped at the hot set ``h``) with ``r`` bytes
  resident misses ``b * (1 - min(1, r / h) ** skew)`` and grows residency by
  the misses, capped at the largest hot set seen for the relation and at
  the pool capacity;
* a scan misses the non-resident part of the whole relation and leaves it
  resident up to capacity; warm sets residency directly;
* every touch makes the relation the most recently used;
* on overflow, bytes are shaved off the least-recently-used relations,
  oldest first; the relation just touched is evicted last, and only if it
  alone still overflows; a relation shaved to nothing is forgotten.

Hypothesis streams mix multi-operation ``access`` batches with ``scan``,
``warm``, ``invalidate`` and ``clear``.  Sizes are drawn in whole pages
around a pool of a few dozen pages, so evictions of one and several
victims, emptied victims and residency capped at the hot-set watermark all
occur.  Two choices keep the comparison about the model, not about float
rounding.  Every hot set stays below the capacity, and the capacity is not
a whole number of pages, so no sum of residencies lands exactly on it.
Otherwise a relation capped at capacity makes the pool's running total and
the reference's re-sum differ by one rounding step, which decides whether
a victim empties or keeps a few 1e-11 bytes.  The protected relation's own
eviction, reached only by a relation larger than the pool, is covered by
the hand-written cases in ``test_buffer_pool.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.buffer_pool import BufferPool
from repro.storage.pages import PAGE_SIZE_BYTES

#: Not a whole number of pages (see the module docstring).
CAPACITY = 48 * PAGE_SIZE_BYTES + 4097
#: Largest hot set, scan or warm drawn: below CAPACITY.
MAX_PAGES = 40
NAMES = ("a", "b", "c", "d", "e")
#: Rounding residue, in bytes, of a running total against a re-summed one.
DUST = 1e-6


class ReferencePool:
    """List-ordered LRU pool; every total is re-summed when needed."""

    def __init__(self, capacity_bytes, skew):
        self.capacity = float(capacity_bytes)
        self.skew = skew
        self.lru = []             # [name, resident, hot_max], oldest first
        self.accesses = 0
        self.scans = 0
        self.bytes_requested = 0.0
        self.bytes_missed = 0.0
        self.evicted_bytes = 0.0
        self.evictions = []       # freed bytes per eviction pass

    def total(self):
        return sum(entry[1] for entry in self.lru)

    def _touch(self, name, hot):
        for entry in self.lru:
            if entry[0] == name:
                self.lru.remove(entry)
                entry[2] = max(entry[2], hot)
                break
        else:
            entry = [name, 0.0, hot]
        self.lru.append(entry)
        return entry

    def _evict(self, protect):
        excess = self.total() - self.capacity
        if excess <= DUST:
            # After an eviction the true total is exactly the capacity, and
            # a re-sum in another order may land a rounding step above it.
            return
        freed = 0.0
        emptied = []
        for entry in self.lru:
            if excess <= 0:
                break
            if entry[0] == protect:
                continue
            taken = min(entry[1], excess)
            entry[1] -= taken
            excess -= taken
            freed += taken
            if entry[1] <= 0:
                emptied.append(entry)
        if excess > 0:
            entry = self.lru[-1]            # the protected relation
            taken = min(entry[1], excess)
            entry[1] -= taken
            freed += taken
            if entry[1] <= 0:
                emptied.append(entry)
        for entry in emptied:
            self.lru.remove(entry)
        self.evicted_bytes += freed
        if freed > 0:
            self.evictions.append(freed)

    def access(self, ops):
        random_miss = 0.0
        sequential_miss = 0.0
        for name, need, hot, sequential in ops:
            if hot <= 0:
                continue
            need = min(need, hot)
            entry = self._touch(name, hot)
            resident = entry[1]
            miss = need * (1.0 - min(1.0, resident / hot) ** self.skew)
            entry[1] = min(resident + miss, entry[2], self.capacity)
            self._evict(protect=name)
            if sequential:
                sequential_miss += miss
            else:
                random_miss += miss
            self.accesses += 1
            self.bytes_requested += need
            self.bytes_missed += miss
        return random_miss, sequential_miss

    def scan(self, name, relation_bytes):
        if relation_bytes <= 0:
            return 0.0
        entry = self._touch(name, relation_bytes)
        miss = max(0.0, relation_bytes - entry[1])
        entry[1] = min(relation_bytes, self.capacity)
        self._evict(protect=name)
        self.accesses += 1
        self.scans += 1
        self.bytes_requested += relation_bytes
        self.bytes_missed += miss
        return miss

    def warm(self, name, resident_bytes, hot_set_bytes=None):
        hot = hot_set_bytes if hot_set_bytes is not None else resident_bytes
        if hot <= 0:
            return
        entry = self._touch(name, hot)
        entry[1] = min(float(resident_bytes), hot, self.capacity)
        self._evict(protect=name)

    def invalidate(self, name):
        for entry in self.lru:
            if entry[0] == name:
                self.lru.remove(entry)
                return entry[1]
        return 0.0

    def clear(self):
        self.lru = []


def _pages(n):
    return n * PAGE_SIZE_BYTES


_name = st.sampled_from(NAMES)
_access_op = st.tuples(
    _name,
    st.integers(0, 64).map(lambda n: _pages(n) / 4),   # may exceed the hot set
    st.integers(1, MAX_PAGES).map(_pages),
    st.booleans())
_step = st.one_of(
    st.tuples(st.just("access"), st.lists(_access_op, min_size=1, max_size=5)),
    st.tuples(st.just("scan"), _name, st.integers(1, MAX_PAGES).map(_pages)),
    st.tuples(st.just("warm"), _name, st.integers(0, MAX_PAGES).map(_pages),
              st.one_of(st.none(), st.integers(1, MAX_PAGES).map(_pages))),
    st.tuples(st.just("invalidate"), _name),
    st.tuples(st.just("clear")),
)
_streams = st.lists(_step, min_size=1, max_size=40)
_skews = st.sampled_from((0.35, 0.5, 1.0))


def _approx(value):
    return pytest.approx(value, rel=1e-9, abs=DUST)


def _run(pool, step):
    kind = step[0]
    if kind == "access":
        return pool.access(step[1])
    if kind == "scan":
        return pool.scan(step[1], step[2])
    if kind == "warm":
        return pool.warm(step[1], step[2], step[3])
    if kind == "invalidate":
        return pool.invalidate(step[1])
    return pool.clear()


def _assert_matches(pool, ref):
    assert pool.tracked_relations() == [entry[0] for entry in ref.lru]
    for name, resident, hot_max in ref.lru:
        assert pool.resident_bytes_of(name) == _approx(resident)
        assert pool.hot_set_bytes_of(name) == hot_max
    assert pool.resident_bytes == _approx(ref.total())
    assert pool.resident_bytes <= pool.capacity_bytes + DUST
    stats = pool.stats
    assert stats.accesses == ref.accesses
    assert stats.scans == ref.scans
    assert stats.bytes_requested == _approx(ref.bytes_requested)
    assert stats.bytes_missed == _approx(ref.bytes_missed)
    assert stats.evicted_bytes == _approx(ref.evicted_bytes)


@settings(max_examples=300, deadline=None)
@given(_streams, _skews)
def test_pool_matches_reference_model(stream, skew):
    pool = BufferPool(CAPACITY, skew=skew)
    evictions = []
    pool.on_evict = evictions.append
    ref = ReferencePool(CAPACITY, skew)
    for step in stream:
        got = _run(pool, step)
        expected = _run(ref, step)
        if step[0] == "access":
            assert got[0] == _approx(expected[0])
            assert got[1] == _approx(expected[1])
        elif got is not None:
            assert got == _approx(expected)
        _assert_matches(pool, ref)
    # The running total can likewise sit a rounding step above capacity.
    assert [freed for freed in evictions if freed > DUST] == \
        [_approx(freed) for freed in ref.evictions]


def _state(pool):
    return ([(name, state.resident, state.hot_max)
             for name, state in pool._relations.items()],
            pool._resident_total, pool._hot_total, pool._maybe_evict, pool._mru,
            pool.stats.accesses, pool.stats.scans, pool.stats.bytes_requested,
            pool.stats.bytes_missed, pool.stats.evicted_bytes)


@settings(max_examples=300, deadline=None)
@given(_streams, _skews)
def test_one_k_op_pass_equals_k_one_op_passes(stream, skew):
    batched = BufferPool(CAPACITY, skew=skew)
    single = BufferPool(CAPACITY, skew=skew)
    batched_freed, single_freed = [], []
    batched.on_evict = batched_freed.append
    single.on_evict = single_freed.append
    for step in stream:
        if step[0] == "access":
            random_miss = sequential_miss = 0.0
            for op in step[1]:
                one_random, one_sequential = single.access((op,))
                random_miss += one_random
                sequential_miss += one_sequential
            assert batched.access(step[1]) == (random_miss, sequential_miss)
        else:
            assert _run(batched, step) == _run(single, step)
        assert _state(batched) == _state(single)
    assert batched_freed == single_freed


def test_negative_bytes_raise_after_charging_the_earlier_operations():
    pool = BufferPool(CAPACITY)
    with pytest.raises(ValueError):
        pool.access((("a", _pages(2), _pages(8), False),
                     ("b", -1.0, _pages(8), False)))
    assert pool.resident_bytes_of("a") == _pages(2)
    assert pool.stats.accesses == 1
    assert pool.stats.bytes_missed == _pages(2)
