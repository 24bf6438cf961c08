"""Unit tests for the database engine's resource-demand model."""

import random

import pytest

from repro.replication.certifier import Certifier
from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.engine import DatabaseEngine, EngineConfig
from repro.storage.pages import PAGE_SIZE_BYTES, mb
from repro.storage.relation import Schema, table
from repro.workloads.spec import lookup, scan, transaction_type, write


def read_bytes(execution):
    """Random plus sequential read bytes of one ``execute`` result."""
    return execution[1] + execution[2]


def applied_write_bytes(engine, writeset, allowed_tables=None):
    """Write bytes charged for applying one remote writeset."""
    return engine.apply_writesets_fast((writeset,), allowed_tables)[2]


def test_read_only_type_produces_no_writeset(tiny_engine, tiny_workload):
    cpu_seconds, _, _, write_bytes, writeset = tiny_engine.execute(tiny_workload.type("Read"))
    assert writeset is None
    assert cpu_seconds > 0
    assert write_bytes == 0


def test_update_type_produces_writeset(tiny_engine, tiny_workload):
    _, _, _, write_bytes, writeset = tiny_engine.execute(tiny_workload.type("Write"))
    assert writeset is not None
    assert tuple(item.relation for item in writeset.items) == ("orders",)
    assert sum(item.payload_bytes for item in writeset.items) == 100
    assert write_bytes == PAGE_SIZE_BYTES
    # A standalone engine stamps no origin; the snapshot is the applied one.
    assert writeset.origin_replica is None
    assert writeset.snapshot_version == tiny_engine.snapshots.applied_version


def test_cold_cache_misses_then_warms(tiny_engine, tiny_workload):
    first = tiny_engine.execute(tiny_workload.type("Scan"))
    assert read_bytes(first) > 0
    for _ in range(50):
        last = tiny_engine.execute(tiny_workload.type("Scan"))
    assert read_bytes(last) < read_bytes(first)


def test_scan_cpu_cost_scales_with_relation_size(tiny_catalog):
    engine = DatabaseEngine(tiny_catalog, BufferPool(mb(256)))
    small = engine.execute(transaction_type("S", reads=[scan("items")], cpu_ms=1.0))
    large = engine.execute(transaction_type("L", reads=[scan("logs")], cpu_ms=1.0))
    assert large[0] > small[0]


def test_bulk_random_access_charged_as_sequential(tiny_catalog):
    engine = DatabaseEngine(tiny_catalog, BufferPool(mb(8)),
                            config=EngineConfig(bulk_read_pages_threshold=64))
    _, _, big_sequential, _, _ = engine.execute(
        transaction_type("Big", reads=[lookup("logs", pages=200)]))
    _, _, small_sequential, _, _ = engine.execute(
        transaction_type("Small", reads=[lookup("users", pages=2)]))
    assert big_sequential > 0
    assert small_sequential == 0


def test_apply_writeset_respects_filter(tiny_engine, tiny_workload):
    writeset = tiny_engine.execute(tiny_workload.type("Write"))[4]
    assert applied_write_bytes(tiny_engine, writeset, allowed_tables={"orders"}) > 0
    assert applied_write_bytes(tiny_engine, writeset, allowed_tables={"users"}) == 0
    assert tiny_engine.writesets_filtered == 1


def test_dropped_table_filters_writesets(tiny_engine, tiny_workload):
    writeset = tiny_engine.execute(tiny_workload.type("Write"))[4]
    tiny_engine.drop_table("orders")
    assert applied_write_bytes(tiny_engine, writeset) == 0
    tiny_engine.restore_table("orders")
    assert applied_write_bytes(tiny_engine, writeset) > 0


def test_writeset_conflict_detection(tiny_engine, tiny_workload):
    writeset = tiny_engine.execute(tiny_workload.type("Write"))[4]
    # An executed writeset conflicts with itself: once committed, the same
    # keys from the same (now stale) snapshot fail certification.
    certifier = Certifier()
    assert certifier.certify(writeset, snapshot_version=0).committed
    assert not certifier.certify(writeset, snapshot_version=0).committed


def test_unknown_relation_raises(tiny_engine):
    with pytest.raises(KeyError):
        tiny_engine.execute(transaction_type("Bad", reads=[lookup("missing", pages=1)]))


def test_compiled_plan_follows_catalog_growth(tiny_catalog):
    """A type's compiled plan is per catalog version: after a relation
    grows, the next execution charges the grown hot sets and scan CPU."""
    pool = BufferPool(mb(256))
    engine = DatabaseEngine(tiny_catalog, pool)
    txn = transaction_type("SW", reads=[scan("items")],
                           writes=[write("orders", pages_dirtied=1)], cpu_ms=1.0)
    before = engine.execute(txn)
    assert pool.hot_set_bytes_of("items") == float(mb(10))
    assert pool.hot_set_bytes_of("orders") == pytest.approx(mb(60) * 0.03)

    tiny_catalog.grow("items", mb(6))
    tiny_catalog.grow("orders", mb(40))
    after = engine.execute(txn)
    assert pool.hot_set_bytes_of("items") == float(mb(16))
    assert pool.hot_set_bytes_of("orders") == pytest.approx(mb(100) * 0.03)
    assert after[0] > before[0]                     # cpu seconds
    assert after[2] > 0                             # the grown part misses


@pytest.mark.parametrize("key_space", [1, 2, 3, 40, 64, 65, 1000, 2 ** 20 + 1])
@pytest.mark.parametrize("seed", [0, 1, 7, 4099])
def test_compiled_key_draws_match_randrange(key_space, seed):
    """The engine's compiled draws (getrandbits of the key space's bit
    length, rejecting values outside it) are the keys a
    ``random.Random(seed).randrange(key_space)`` stream gives, draw for
    draw, across rows and write items.  If this fails after a Python
    upgrade, ``randrange`` changed and the seeded goldens will move too."""
    schema = Schema.from_relations("keys", [table("a", PAGE_SIZE_BYTES),
                                            table("b", PAGE_SIZE_BYTES)])
    engine = DatabaseEngine(Catalog(schema=schema), BufferPool(mb(8)),
                            config=EngineConfig(key_space_per_page=key_space),
                            rng=random.Random(seed))
    txn = transaction_type("W", writes=[write("a", rows=3), write("b", rows=2)])
    drawn = []
    for _ in range(6):
        writeset = engine.execute(txn)[4]
        for item in writeset.items:
            drawn.extend(item.keys)
    reference = random.Random(seed)
    assert drawn == [reference.randrange(key_space) for _ in range(len(drawn))]
    assert engine.rng.getstate() == reference.getstate()
