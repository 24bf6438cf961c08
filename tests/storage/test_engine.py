"""Unit tests for the database engine's resource-demand model."""

import pytest

from repro.storage.buffer_pool import BufferPool
from repro.storage.engine import DatabaseEngine, EngineConfig
from repro.storage.pages import PAGE_SIZE_BYTES, mb
from repro.workloads.spec import lookup, scan, transaction_type, write


def test_read_only_type_produces_no_writeset(tiny_engine, tiny_workload):
    work, writeset = tiny_engine.execute(tiny_workload.type("Read"))
    assert writeset is None
    assert work.cpu_seconds > 0
    assert work.write_bytes == 0


def test_update_type_produces_writeset(tiny_engine, tiny_workload):
    work, writeset = tiny_engine.execute(tiny_workload.type("Write"))
    assert writeset is not None
    assert writeset.tables == ("orders",)
    assert writeset.payload_bytes == 100
    assert work.write_bytes == PAGE_SIZE_BYTES


def test_cold_cache_misses_then_warms(tiny_engine, tiny_workload):
    first, _ = tiny_engine.execute(tiny_workload.type("Scan"))
    assert first.read_bytes > 0
    for _ in range(50):
        last, _ = tiny_engine.execute(tiny_workload.type("Scan"))
    assert last.read_bytes < first.read_bytes


def test_scan_cpu_cost_scales_with_relation_size(tiny_catalog):
    engine = DatabaseEngine(tiny_catalog, BufferPool(mb(256)))
    small, _ = engine.execute(transaction_type("S", reads=[scan("items")], cpu_ms=1.0))
    large, _ = engine.execute(transaction_type("L", reads=[scan("logs")], cpu_ms=1.0))
    assert large.cpu_seconds > small.cpu_seconds


def test_bulk_random_access_charged_as_sequential(tiny_catalog):
    engine = DatabaseEngine(tiny_catalog, BufferPool(mb(8)),
                            config=EngineConfig(bulk_read_pages_threshold=64))
    big, _ = engine.execute(transaction_type("Big", reads=[lookup("logs", pages=200)]))
    small, _ = engine.execute(transaction_type("Small", reads=[lookup("users", pages=2)]))
    assert big.sequential_read_bytes > 0
    assert small.sequential_read_bytes == 0


def test_apply_writeset_respects_filter(tiny_engine, tiny_workload):
    _, writeset = tiny_engine.execute(tiny_workload.type("Write"))
    applied = tiny_engine.apply_writeset(writeset, allowed_tables={"orders"})
    filtered = tiny_engine.apply_writeset(writeset, allowed_tables={"users"})
    assert applied.write_bytes > 0
    assert filtered.write_bytes == 0
    assert tiny_engine.writesets_filtered == 1


def test_dropped_table_filters_writesets(tiny_engine, tiny_workload):
    _, writeset = tiny_engine.execute(tiny_workload.type("Write"))
    tiny_engine.drop_table("orders")
    work = tiny_engine.apply_writeset(writeset)
    assert work.write_bytes == 0
    tiny_engine.restore_table("orders")
    work = tiny_engine.apply_writeset(writeset)
    assert work.write_bytes > 0


def test_writeset_conflict_detection(tiny_engine, tiny_workload):
    _, ws1 = tiny_engine.execute(tiny_workload.type("Write"))
    _, ws2 = tiny_engine.execute(tiny_workload.type("Write"))
    # Same keys conflict with themselves, disjoint keys do not.
    assert ws1.conflicts_with(ws1)
    restricted = ws1.restricted_to(["users"])
    assert restricted.items == ()


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
    before, _ = engine.execute(txn)
    assert pool.hot_set_bytes_of("items") == float(mb(10))
    assert pool.hot_set_bytes_of("orders") == pytest.approx(mb(60) * 0.03)

    tiny_catalog.grow("items", mb(6))
    tiny_catalog.grow("orders", mb(40))
    after, _ = engine.execute(txn)
    assert pool.hot_set_bytes_of("items") == float(mb(16))
    assert pool.hot_set_bytes_of("orders") == pytest.approx(mb(100) * 0.03)
    assert after.cpu_seconds > before.cpu_seconds
    assert after.sequential_read_bytes > 0          # the grown part misses
