"""The per-replica database engine.

The engine is the simulated equivalent of one PostgreSQL instance: it owns
the replica's buffer pool and catalog view, and it turns transaction
executions and remote-writeset applications into *resource demand* --
CPU time, random/sequential disk-read volume and dirty-page write-back
volume.  The surrounding simulation (``repro.sim`` / ``repro.replication``)
is responsible for queueing those demands on the replica's CPU and disk
resources and for turning them into latency and throughput.

Separating "how much work does this transaction cause given the current
cache state" (the engine) from "how long does that work take under
contention" (the resources) keeps the memory-contention model -- the heart
of the paper -- independent from the queueing model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.storage.buffer_pool import BufferPool, PoolOp
from repro.storage.catalog import Catalog
from repro.storage.pages import PAGE_SIZE_BYTES
from repro.storage.snapshot import SnapshotManager
from repro.workloads.spec import AccessPattern, TransactionType

# A transaction type compiled against one catalog version: (type, CPU
# seconds, buffer-pool operations, write bytes, writes).  Each write is
# (relation, rows, key space, key bits, writeset bytes, pages dirtied).
# See DatabaseEngine._compile.
_WritePlan = Tuple[str, int, int, int, int, int]
_TxnPlan = Tuple[TransactionType, float, Tuple[PoolOp, ...], float,
                 Tuple[_WritePlan, ...]]


class WriteItem:
    """One table's worth of changes inside a writeset.

    Hand-written ``__slots__`` rather than a frozen dataclass: every update
    transaction builds one per written table, and the frozen-dataclass
    ``__init__`` (one ``object.__setattr__`` per field) showed in the
    transaction path.  Value equality, hashing and ``repr`` match the old
    dataclass; treat instances as immutable.
    """

    __slots__ = ("relation", "keys", "payload_bytes", "pages_dirtied")

    def __init__(self, relation: str, keys: Tuple[int, ...], payload_bytes: int,
                 pages_dirtied: int) -> None:
        self.relation = relation
        self.keys = keys
        self.payload_bytes = payload_bytes
        self.pages_dirtied = pages_dirtied

    def _fields(self) -> Tuple[str, Tuple[int, ...], int, int]:
        return (self.relation, self.keys, self.payload_bytes, self.pages_dirtied)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WriteItem):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return ("WriteItem(relation=%r, keys=%r, payload_bytes=%r, "
                "pages_dirtied=%r)" % self._fields())


class WriteSet:
    """The changes made by one update transaction (Section 4.1).

    A writeset is "the core information required to reflect the effects of
    an update transaction's changes"; it is what the proxy sends to the
    certifier and what the certifier broadcasts to the other replicas.  The
    engine builds it once, stamped with the executing replica and the
    snapshot it ran against, and that same object is certified, logged and
    propagated.  ``__slots__`` for the same reason as :class:`WriteItem`;
    treat instances as immutable.
    """

    __slots__ = ("transaction_type", "items", "origin_replica",
                 "snapshot_version")

    def __init__(self, transaction_type: str, items: Tuple[WriteItem, ...],
                 origin_replica: Optional[int] = None,
                 snapshot_version: int = 0) -> None:
        self.transaction_type = transaction_type
        self.items = items
        self.origin_replica = origin_replica
        self.snapshot_version = snapshot_version

    def _fields(self) -> Tuple[str, Tuple[WriteItem, ...], Optional[int], int]:
        return (self.transaction_type, self.items, self.origin_replica,
                self.snapshot_version)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WriteSet):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return ("WriteSet(transaction_type=%r, items=%r, origin_replica=%r, "
                "snapshot_version=%r)" % self._fields())


#: What :meth:`DatabaseEngine.execute` returns: ``(cpu_seconds,
#: random_read_bytes, sequential_read_bytes, write_bytes, writeset)``, the
#: resource demand of one execution and, for update types, its writeset.
Execution = Tuple[float, float, float, float, Optional[WriteSet]]


@dataclass(frozen=True)
class EngineConfig:
    """Tunable cost parameters of the engine itself (CPU side).

    Attributes:
        cpu_ms_per_scanned_mb: CPU cost of processing one MB of scanned
            tuples (predicate evaluation, aggregation); charged regardless of
            whether the data came from cache or disk.
        cpu_ms_per_writeset_item: CPU cost of applying one table's changes
            from a remote writeset.
        index_pages_per_lookup: pages of the index structure touched per
            random table access (B-tree descent).
        key_space_per_page: how many distinct logical keys map to one page
            when generating writeset keys (controls certification conflict
            probability).
        write_locality: fraction of a table within which writes (and remote
            writeset applications) land.  Inserts append to the tail of a
            table and updates favour recent rows, so the pages being dirtied
            form a small, usually cache-resident region; this keeps the read
            cost of applying a writeset low while its write-back still
            consumes disk-channel bandwidth (Section 5.5).
        bulk_read_pages_threshold: random accesses that touch at least this
            many pages per execution (large range/aggregation queries such as
            BestSellers or AboutMe) fetch their misses with bitmap/readahead
            style bulk I/O, so those misses are charged at sequential rather
            than per-page random cost.
    """

    cpu_ms_per_scanned_mb: float = 1.5
    cpu_ms_per_writeset_item: float = 0.4
    index_pages_per_lookup: int = 3
    key_space_per_page: int = 40
    write_locality: float = 0.03
    bulk_read_pages_threshold: int = 64


class DatabaseEngine:
    """One replica's database: catalog + buffer pool + execution cost model."""

    def __init__(self, catalog: Catalog, buffer_pool: BufferPool,
                 config: Optional[EngineConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.catalog = catalog
        self.buffer_pool = buffer_pool
        self.config = config or EngineConfig()
        # The cluster always injects a config.seed-derived stream; the
        # literal is the standalone-engine default for unit tests.
        self.rng = rng or random.Random(0)  # simlint: disable=R1
        self.snapshots = SnapshotManager()
        # Stamped on every writeset this engine builds as its
        # ``origin_replica``; the owning Replica sets it at construction.
        self.replica_id: Optional[int] = None
        self.dropped_tables: Set[str] = set()
        # Cumulative accounting for the paper's disk-I/O tables.
        self.transactions_executed = 0
        self.writesets_applied = 0
        self.writesets_filtered = 0
        # Per-type execution plans (CPU, pool operations, writes) derived
        # purely from catalog metadata.  Keyed by the identity of the
        # long-lived TransactionType objects and dropped whenever the
        # catalog version changes, so a type executed thousands of times
        # is compiled once per version.  The plan holds the type itself,
        # which both pins its id and guards against identity reuse.
        self._plans: Dict[int, _TxnPlan] = {}
        self._plans_version = -1
        # relation name -> write hot-set bytes, shared by local writes and
        # remote writeset application; cleared when the catalog version moves.
        self._write_hot_sets: Dict[str, float] = {}
        self._write_hot_version = -1

    # ------------------------------------------------------------------
    # Transaction execution
    # ------------------------------------------------------------------
    def execute(self, txn_type: TransactionType) -> Execution:
        """Execute one instance of ``txn_type`` against the local cache.

        Returns ``(cpu_seconds, random_read_bytes, sequential_read_bytes,
        write_bytes, writeset)``: the resource demand and, for update types,
        the writeset to be certified and propagated (None otherwise).  The
        writeset is stamped with :attr:`replica_id` and the snapshot the
        transaction runs against.

        Keys are drawn the way ``Random.randrange(key_space)`` draws them
        (``getrandbits`` of the key space's bit length, rejecting values
        outside it), with the bit length compiled into the plan, so the keys
        are the ones ``randrange`` would give without its per-call overhead.
        """
        plans = self._plans
        if self._plans_version != self.catalog.version:
            plans.clear()
            self._plans_version = self.catalog.version
        plan = plans.get(id(txn_type))
        if plan is None or plan[0] is not txn_type:
            plans[id(txn_type)] = plan = self._compile(txn_type)
        _, cpu_seconds, ops, write_bytes, writes = plan
        random_read_bytes, sequential_read_bytes = self.buffer_pool.access(ops)
        self.transactions_executed += 1
        if not writes:
            return (cpu_seconds, random_read_bytes, sequential_read_bytes,
                    write_bytes, None)
        getrandbits = self.rng.getrandbits
        items: List[WriteItem] = []
        for relation, rows, key_space, key_bits, payload_bytes, pages_dirtied in writes:
            keys: List[int] = []
            for _ in range(rows):
                key = getrandbits(key_bits)
                while key >= key_space:
                    key = getrandbits(key_bits)
                keys.append(key)
            items.append(WriteItem(relation, tuple(keys), payload_bytes, pages_dirtied))
        return (cpu_seconds, random_read_bytes, sequential_read_bytes, write_bytes,
                WriteSet(txn_type.name, tuple(items), self.replica_id,
                         self.snapshots.applied_version))

    def _compile(self, txn_type: TransactionType) -> _TxnPlan:
        """Derive a transaction type's costs from catalog metadata.

        Only values that depend exclusively on the catalog (and the
        engine's static config) are precomputed; buffer-pool state is
        consulted at execution time, by one :meth:`BufferPool.access` pass
        over the operations in execution order: each read (a scan as an
        access of its whole hot set, a random read as its index descent,
        if any, then its table pages), then each write's pages, which must
        be resident before they can be dirtied.  Scan CPU is added to the
        base CPU in read order, like every other sum here, so the results
        are the same floats a per-access evaluation gives.
        """
        catalog = self.catalog
        config = self.config
        cpu_seconds = txn_type.cpu_ms / 1000.0
        ops: List[PoolOp] = []
        for access in txn_type.reads:
            relation_name = access.relation
            relation = catalog.get(relation_name)
            if relation is None:
                raise KeyError("engine: unknown relation %r" % (relation_name,))
            hot_set = float(catalog.size_bytes(relation_name)) * access.selectivity
            if hot_set < PAGE_SIZE_BYTES:
                hot_set = float(PAGE_SIZE_BYTES)

            if access.pattern is AccessPattern.SCAN:
                ops.append((relation_name, hot_set, hot_set, True))
                cpu_seconds += (hot_set / (1024.0 * 1024.0)) * \
                    config.cpu_ms_per_scanned_mb / 1000.0
                continue

            # Random access: descend an index (if any), then fetch table
            # pages.  Large range accesses fetch their misses with
            # readahead-style bulk I/O rather than one seek per page.
            if relation.is_table:
                chosen = catalog.smallest_index_of(relation_name)
                if chosen is not None:
                    index_hot = float(catalog.size_bytes(chosen.name)) * access.selectivity
                    if index_hot < PAGE_SIZE_BYTES:
                        index_hot = float(PAGE_SIZE_BYTES)
                    ops.append((chosen.name,
                                config.index_pages_per_lookup * PAGE_SIZE_BYTES,
                                index_hot, False))
            ops.append((relation_name,
                        access.pages_per_execution * PAGE_SIZE_BYTES, hot_set,
                        access.pages_per_execution >= config.bulk_read_pages_threshold))

        write_bytes = 0.0
        writes: List[_WritePlan] = []
        for write_spec in txn_type.writes:
            relation_name = write_spec.relation
            touched = write_spec.pages_dirtied * PAGE_SIZE_BYTES
            # Writes cluster in a small append/update region, so fetching
            # the pages they dirty usually hits the cache.
            ops.append((relation_name, touched, self._write_hot_set(relation_name), False))
            write_bytes += touched
            key_space = max(1, catalog.relpages(relation_name)) * config.key_space_per_page
            writes.append((relation_name, write_spec.rows, key_space,
                           key_space.bit_length(), write_spec.writeset_bytes,
                           write_spec.pages_dirtied))
        return txn_type, cpu_seconds, tuple(ops), write_bytes, tuple(writes)

    def _write_hot_map(self) -> Dict[str, float]:
        """Relation -> write hot-set bytes, valid for the current catalog."""
        if self._write_hot_version != self.catalog.version:
            self._write_hot_sets.clear()
            self._write_hot_version = self.catalog.version
        return self._write_hot_sets

    def _write_hot_set(self, relation: str) -> float:
        """Hot-set size for writes to ``relation`` (cached per catalog version)."""
        hot_map = self._write_hot_map()
        hot_set = hot_map.get(relation)
        if hot_set is None:
            hot_set = float(self.catalog.size_bytes(relation)) * self.config.write_locality
            if hot_set < PAGE_SIZE_BYTES:
                hot_set = float(PAGE_SIZE_BYTES)
            hot_map[relation] = hot_set
        return hot_set

    # ------------------------------------------------------------------
    # Remote writeset application (update propagation)
    # ------------------------------------------------------------------
    def apply_writesets_fast(self, writesets: Sequence[WriteSet],
                             allowed_tables: Optional[Set[str]] = None
                             ) -> Tuple[float, float, float, int, int]:
        """Apply a batch of remote writesets, aggregating per relation.

        ``allowed_tables`` implements update filtering: when given, changes
        to tables outside the set are dropped ("the proxy ... only forwards
        the writesets for those tables to the replica", Section 4.2.3).
        Tables in :attr:`dropped_tables` are always filtered.

        Update propagation applies writesets in batches (a periodic pull or
        the piggyback on a certification response), and within one batch the
        items cluster on a handful of write-hot regions.  Charging the
        buffer pool once per ``(batch, relation)`` with the summed touched
        bytes -- instead of once per item -- keeps the application cost
        proportional to the number of distinct relations, which is what made
        full-fidelity propagation (every committed writeset applied at every
        replica) affordable at paper scale.

        Returns ``(cpu_seconds, random_read_bytes, write_bytes,
        writesets_applied, writesets_filtered)``.
        """
        dropped = self.dropped_tables
        cpu_per_item = self.config.cpu_ms_per_writeset_item / 1000.0
        touched_by_relation: Dict[str, float] = {}
        applied_items = 0
        applied_count = 0
        filtered_count = 0
        for writeset in writesets:
            applied_any = False
            for item in writeset.items:
                relation = item.relation
                if relation in dropped:
                    continue
                if allowed_tables is not None and relation not in allowed_tables:
                    continue
                applied_any = True
                applied_items += 1
                touched = item.pages_dirtied * PAGE_SIZE_BYTES
                if relation in touched_by_relation:
                    touched_by_relation[relation] += touched
                else:
                    touched_by_relation[relation] = touched
            if applied_any:
                applied_count += 1
            else:
                filtered_count += 1
        random_read_bytes = 0.0
        write_bytes = 0.0
        if touched_by_relation:
            hot_map = self._write_hot_map()
            ops: List[PoolOp] = []
            for relation, touched in touched_by_relation.items():
                hot_set = hot_map.get(relation)
                if hot_set is None:
                    hot_set = self._write_hot_set(relation)
                ops.append((relation, touched, hot_set, False))
                write_bytes += touched
            random_read_bytes, _ = self.buffer_pool.access(ops)
        self.writesets_applied += applied_count
        self.writesets_filtered += filtered_count
        return (cpu_per_item * applied_items, random_read_bytes, write_bytes,
                applied_count, filtered_count)

    # ------------------------------------------------------------------
    # Table dropping (update filtering with stable workloads)
    # ------------------------------------------------------------------
    def drop_table(self, relation: str) -> float:
        """Stop maintaining a relation at this replica and free its cache."""
        self.dropped_tables.add(relation)
        return self.buffer_pool.invalidate(relation)

    def restore_table(self, relation: str) -> None:
        """Resume maintaining a previously dropped relation (recovery path)."""
        self.dropped_tables.discard(relation)
