"""The certifier: global certification, commit ordering and the persistent log.

Tashkent's concurrency control is generalized snapshot isolation (GSI).
Read-only transactions commit locally; update transactions are sent to the
certifier at commit time, which "processes the writeset to detect
write-write conflicts by comparing table and field identifiers for matches
against writesets from recently committed update transactions.
Successfully certified writesets are recorded in a persistent log, thus
creating a global order" (Section 4.1).

The certifier here is the logical component: certification decisions, the
log, conflict detection, lag notifications and log truncation.  Latency of
the round trip (network plus certification service time) is modelled by the
replica proxy, and replication of the certifier itself (a leader plus two
backups in the paper) is captured by :mod:`repro.replication.recovery`.

Conflict detection is indexed: alongside the log, the certifier maintains an
inverted index mapping every ``(relation, key)`` ever written to the version
of its *last* committed writer.  Certifying a writeset is then
O(|writeset|) -- one index probe per written key -- instead of a scan over
every writeset committed since the transaction's snapshot, which made
certification O(log length) per request and dominated paper-scale runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.replication.writeset import CertifiedWriteSet, WriteSet

#: How many recent request decisions the certifier caches per origin
#: replica, for idempotent at-least-once RPC.  A proxy keeps one round trip
#: in flight, so the window only needs to cover responses still wandering
#: the network when newer requests arrive; 16 is generous.
RPC_DEDUP_WINDOW = 16


class CertificationResult(NamedTuple):
    """Outcome of one certification request.

    A NamedTuple rather than a dataclass: one is constructed per
    certification request, and tuple construction is C-level -- the
    dataclass ``__init__`` was visible in certification-path profiles.
    """

    committed: bool
    version: int
    conflict_with: Optional[int] = None   # commit version of the conflicting writeset


@dataclass
class CertifierStats:
    requests: int = 0
    commits: int = 0
    aborts: int = 0
    notifications_sent: int = 0
    batches: int = 0            # batched round trips served (certify_batch calls)
    batched_requests: int = 0   # requests that arrived inside a batch
    dedup_hits: int = 0         # retried/duplicated RPCs answered from cache
    stale_requests: int = 0     # retransmissions older than the dedup window


class _RpcDedupState:
    """Per-origin at-least-once RPC dedup state (see :meth:`Certifier.certify_rpc`).

    ``latest`` is the highest request id ever served for the origin;
    ``window`` maps recent request ids to their cached decisions, bounded to
    :data:`RPC_DEDUP_WINDOW` entries in insertion (= request-id) order.
    """

    __slots__ = ("latest", "window")

    def __init__(self) -> None:
        self.latest = 0
        self.window: Dict[int, List[CertificationResult]] = {}


class LagSubscriptionIndex:
    """Replica lag cursors bucketed by the version at which they need a nudge.

    The paper's propagation scheme sends a lag notification when a replica
    falls ``lag_notification_threshold`` versions behind the certifier
    (Section 4.2).  The naive implementation re-derived that per commit
    batch by scanning *every* live replica's applied cursor -- O(replicas)
    work on the commit path.  This index inverts the check: each proxy
    registers its applied-version cursor, which maps to the version at
    which the replica will cross the threshold (``applied + threshold``,
    the *notify-at* version).  Those notify-at versions live in a min-heap,
    so a commit batch pops exactly the replicas whose threshold the new
    ``current_version`` crossed -- O(notified log subscribers), and O(1)
    when nobody crossed, independent of cluster size.

    Heap entries are invalidated lazily: every cursor advance pushes a
    fresh ``(notify_at, replica_id)`` pair and records it as the armed one;
    stale pairs are discarded when popped (their notify-at version is at
    most ``armed + threshold``, so the advancing ``current_version`` always
    drains them).  A popped replica is *disarmed* until its cursor next
    advances -- exactly the cluster's one-notification-in-flight dedup:
    the pull a notification triggers always advances the cursor, which
    re-arms the subscription at the new lag target.
    """

    __slots__ = ("threshold", "_armed", "_heap")

    #: armed-state sentinel: subscribed, but waiting for a cursor advance
    #: before the replica can cross the threshold again.
    _DISARMED = -1

    def __init__(self, threshold: int) -> None:
        if threshold <= 0:
            raise ValueError("lag notification threshold must be positive")
        self.threshold = threshold
        # replica id -> armed notify-at version (_DISARMED after a pop).
        self._armed: Dict[int, int] = {}
        self._heap: List[Tuple[int, int]] = []

    def subscribe(self, replica_id: int, applied_version: int) -> None:
        """Register (or re-register) a replica's propagation cursor."""
        notify_at = applied_version + self.threshold
        self._armed[replica_id] = notify_at
        heappush(self._heap, (notify_at, replica_id))

    def unsubscribe(self, replica_id: int) -> None:
        """Drop a replica that left service (its heap entries decay lazily)."""
        self._armed.pop(replica_id, None)

    def advanced(self, replica_id: int, applied_version: int) -> None:
        """The replica's cursor moved: re-arm it at the new lag target."""
        armed = self._armed
        if replica_id in armed:
            notify_at = applied_version + self.threshold
            armed[replica_id] = notify_at
            heappush(self._heap, (notify_at, replica_id))

    def subscribed(self, replica_id: int) -> bool:
        return replica_id in self._armed

    def crossed(self, current_version: int) -> Tuple[int, ...]:
        """Pop the replicas whose lag crossed the threshold, ascending by
        notify-at version then replica id (deterministic regardless of the
        order cursors advanced in).  The common no-crosser case is a single
        heap-top comparison."""
        heap = self._heap
        if not heap or heap[0][0] > current_version:
            return ()
        armed = self._armed
        out = []
        disarmed = self._DISARMED
        while heap and heap[0][0] <= current_version:
            notify_at, replica_id = heappop(heap)
            if armed.get(replica_id) == notify_at:
                armed[replica_id] = disarmed
                out.append(replica_id)
        return tuple(out)


class Certifier:
    """Certifies writesets, orders commits and retains the writeset log."""

    def __init__(self, lag_notification_threshold: int = 25,
                 max_log_entries: Optional[int] = None) -> None:
        if lag_notification_threshold <= 0:
            raise ValueError("lag notification threshold must be positive")
        self.lag_notification_threshold = lag_notification_threshold
        self.max_log_entries = max_log_entries
        #: Lag subscriptions of the live replicas (the cluster registers the
        #: proxies' applied-version cursors here); a commit batch asks
        #: :meth:`LagSubscriptionIndex.crossed` for the replicas to notify
        #: instead of scanning every replica.
        self.subscriptions = LagSubscriptionIndex(lag_notification_threshold)
        self.log: List[CertifiedWriteSet] = []
        self._log_offset = 0          # version of the first retained entry minus one
        #: Version of the most recently committed writeset (0 if none).
        #: Maintained as a plain attribute (== _log_offset + len(log));
        #: consulted on every lag check and certification.
        self.current_version = 0
        # Inverted index: (relation, key) -> version of the last committed
        # writeset that wrote it.  Entries at or below _log_offset are stale
        # (their writesets left the log) and are dropped when the log is
        # truncated.
        self._last_writer: Dict[Tuple[str, int], int] = {}
        # At-least-once RPC dedup: per origin replica, the highest request id
        # ever served plus a bounded window of recent decisions, so a retried
        # or duplicated round trip is answered from cache instead of being
        # certified twice.  See :meth:`certify_rpc`.
        self.rpc_cache: Dict[int, _RpcDedupState] = {}
        self.stats = CertifierStats()

    # ------------------------------------------------------------------
    # Certification
    # ------------------------------------------------------------------
    @property
    def oldest_available_version(self) -> int:
        """Version of the oldest writeset still retained in the log.

        ``current_version + 1`` when the log is empty; a replica whose
        applied version is below ``oldest_available_version - 1`` cannot
        catch up from the log alone (recovery must restore the missing
        prefix from another copy, Section 3).
        """
        return self._log_offset + 1

    def certify(self, writeset: WriteSet, snapshot_version: int, now: float = 0.0) -> CertificationResult:
        """Certify a writeset executed against ``snapshot_version``.

        The write-write conflict rule of (G)SI: the transaction aborts if any
        writeset committed after its snapshot intersects its own writeset.
        """
        self.stats.requests += 1
        conflict = self._find_conflict(writeset, snapshot_version)
        if conflict is not None:
            self.stats.aborts += 1
            return CertificationResult(committed=False, version=self.current_version,
                                       conflict_with=conflict)
        version = self.current_version + 1
        self.current_version = version
        self.log.append(CertifiedWriteSet(version=version, writeset=writeset, commit_time=now))
        last_writer = self._last_writer
        for item in writeset.items:
            relation = item.relation
            for key in item.keys:
                last_writer[(relation, key)] = version
        self.stats.commits += 1
        self._maybe_trim()
        return CertificationResult(committed=True, version=version)

    def certify_batch(self, requests: Sequence[Tuple[WriteSet, int]],
                      since_version: int, now: float = 0.0
                      ) -> Tuple[List[CertificationResult], List[CertifiedWriteSet]]:
        """Serve one proxy's batched certification round trip.

        ``requests`` is the FIFO list of ``(writeset, snapshot_version)``
        pairs a proxy accumulated during one round trip; they are certified
        in order, so commit versions respect per-proxy FIFO.  A writeset
        later in the batch conflicts with earlier commits of the same batch
        exactly as it would had they arrived as separate requests.

        Returns ``(results, piggyback)``: one :class:`CertificationResult`
        per request plus every writeset committed since ``since_version``
        (the requesting proxy's applied version), computed *after* the batch
        so it includes the batch's own commits.  The proxy applies the
        piggybacked writesets before committing locally or retrying, which
        is how the paper's responses keep replicas current (Section 4.2)
        and how an aborted transaction's retry sees a fresh snapshot.
        """
        self.stats.batches += 1
        self.stats.batched_requests += len(requests)
        results = [self.certify(writeset, snapshot, now=now)
                   for writeset, snapshot in requests]
        return results, self.writesets_since(since_version)

    def certify_rpc(self, origin_replica: int, request_id: int,
                    requests: Sequence[Tuple[WriteSet, int]],
                    since_version: int, now: float = 0.0
                    ) -> Tuple[Optional[List[CertificationResult]],
                               List[CertifiedWriteSet]]:
        """Serve one *at-least-once* batched round trip, idempotently.

        Proxies stamp every round trip with a per-proxy monotonically
        increasing ``request_id`` and resend it (same id, same writeset
        objects) on timeout, so the same request can arrive here any number
        of times, in any order.  Three cases:

        * **fresh** (``request_id`` above everything seen from this origin):
          certified normally via :meth:`certify_batch`; the decision is
          cached.
        * **duplicate** (id still in the dedup window): answered from the
          cached decision -- the batch is *not* re-certified -- with a
          freshly computed piggyback, since the proxy's applied version may
          have moved between transmissions.
        * **stale** (id at or below the newest served id but outside the
          window): a long-delayed retransmission whose round trip the proxy
          has abandoned or already completed.  Returns ``(None, [])`` --
          certifying it would commit the same writesets twice.  Never
          happens within a window of :data:`RPC_DEDUP_WINDOW` retries, which
          a one-round-trip-in-flight proxy cannot exceed.

        Works unbound for :class:`~repro.replication.recovery.\
ReplicatedCertifierLog` (which carries its own ``rpc_cache``), so the
        dedup state survives certifier fail-over.
        """
        cache = self.rpc_cache.get(origin_replica)
        if cache is None:
            cache = self.rpc_cache[origin_replica] = _RpcDedupState()
        window = cache.window
        cached = window.get(request_id)
        if cached is not None:
            self.stats.dedup_hits += 1
            return cached, self.writesets_since(since_version)
        if request_id <= cache.latest:
            self.stats.stale_requests += 1
            return None, []
        cache.latest = request_id
        results, piggyback = self.certify_batch(requests, since_version, now=now)
        window[request_id] = results
        while len(window) > RPC_DEDUP_WINDOW:
            del window[next(iter(window))]
        return results, piggyback

    def _find_conflict(self, writeset: WriteSet, snapshot_version: int) -> Optional[int]:
        """Index probe per written key: O(|writeset|), not O(log length).

        A key conflicts when its last committed writer is newer than the
        transaction's snapshot (and still within the retained log -- entries
        older than the truncation horizon were never visible to the original
        scan either).  When several keys conflict, the smallest conflicting
        version is reported, matching the log-scan behaviour for
        single-writer histories.

        One deliberate strictness difference from the old scan: the index
        records every item's keys, whereas the scan's ``keys_by_table()``
        dict silently kept only the *last* item per relation, losing keys
        when one writeset carried two items on the same relation.  No
        shipped workload (TPC-W, RUBiS) emits such writesets, so seeded
        results are unaffected; synthetic writesets now conflict on all of
        their keys, as GSI requires.
        """
        if not writeset.items:
            return None
        start = max(snapshot_version, self._log_offset)
        conflict: Optional[int] = None
        last_writer = self._last_writer
        for item in writeset.items:
            relation = item.relation
            for key in item.keys:
                version = last_writer.get((relation, key))
                if version is not None and version > start:
                    if conflict is None or version < conflict:
                        conflict = version
        return conflict

    # ------------------------------------------------------------------
    # Update propagation support
    # ------------------------------------------------------------------
    def writesets_since(self, version: int, limit: Optional[int] = None) -> List[CertifiedWriteSet]:
        """Committed writesets with versions greater than ``version``."""
        if version < self._log_offset:
            raise KeyError(
                "replica requests version %d but the log starts at %d; recovery is required"
                % (version, self._log_offset + 1)
            )
        start = version - self._log_offset
        if limit is not None:
            return self.log[start:start + limit]
        return self.log[start:]

    # ------------------------------------------------------------------
    # Log management
    # ------------------------------------------------------------------
    def truncate(self, oldest_needed_version: int) -> int:
        """Drop log entries no replica needs any more.  Returns entries dropped."""
        if oldest_needed_version <= self._log_offset:
            return 0
        drop = min(oldest_needed_version - self._log_offset, len(self.log))
        if drop <= 0:
            return 0
        del self.log[:drop]
        self._log_offset += drop
        self._sweep_index()
        return drop

    def _maybe_trim(self) -> None:
        if self.max_log_entries is None:
            return
        excess = len(self.log) - self.max_log_entries
        if excess > 0:
            del self.log[:excess]
            self._log_offset += excess
            # Trimming happens on the commit path, so the stale-entry sweep
            # is amortised: only rebuild once staleness could dominate.
            if len(self._last_writer) > 256 and \
                    len(self._last_writer) > 8 * len(self.log):
                self._sweep_index()

    def _sweep_index(self) -> None:
        """Drop index entries whose writesets left the log.

        Entries at or below the offset can never win a conflict check
        (``_find_conflict`` floors at the offset), so removing them only
        frees memory; on long runs with periodic truncation this keeps the
        index proportional to the retained log's key footprint.
        """
        offset = self._log_offset
        stale = [key for key, version in self._last_writer.items() if version <= offset]
        for key in stale:
            del self._last_writer[key]

    def log_is_total_order(self) -> bool:
        """Invariant check used by tests: versions are dense and increasing."""
        expected = self._log_offset + 1
        for entry in self.log:
            if entry.version != expected:
                return False
            expected += 1
        return True
