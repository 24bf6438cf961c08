"""The replication proxy attached to each replica.

Tashkent is "pure replication middleware": a transparent proxy sits in front
of every database replica (Figure 1).  The proxy

* performs admission control with the Gatekeeper algorithm so bursts do not
  overload the database [ENTZ04],
* forwards certification requests to the certifier -- batched, with at most
  one round trip in flight per proxy -- and applies the remote writesets
  piggybacked on the response before committing or retrying,
* pulls new updates periodically (every 500 ms in the prototype) when the
  replica has been idle, and reacts to the certifier's lag notifications,
* and, for Tashkent+, stores the update-filtering table list and forwards
  only the writesets for those tables to the database (Section 4.2.3).

The proxy is deliberately free of simulator details; the
:class:`~repro.replication.replica.Replica` wires its decisions into the
event loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Optional, Set

if TYPE_CHECKING:
    from repro.replication.certifier import LagSubscriptionIndex


@dataclass
class ProxyConfig:
    """Proxy tunables.

    Attributes:
        max_concurrency: Gatekeeper limit on transactions concurrently inside
            the database; further arrivals queue in the proxy.
        pull_interval_s: how often an idle replica asks the certifier for new
            writesets (500 ms in the prototype).
        certification_latency_s: one round trip to the certifier (network +
            certification service time).
        max_certification_batch: how many certification requests one round
            trip may carry.  The proxy keeps at most one round trip in
            flight; update transactions reaching certification while it is
            outstanding join the next batch, sharing its latency.  1 sends
            every request on its own round trip (still serialized per
            proxy).
        notification_latency_s: one-way certifier-to-proxy latency of a lag
            notification; the pull it triggers is deferred by this much, so
            piggyback propagation is not free relative to the periodic pull.
        rpc_timeout_s: how long the proxy waits for a certification response
            before retransmitting the round trip.  Only consulted when the
            replica talks to the certifier over an unreliable
            :class:`~repro.net.channel.Channel`; the default direct path
            cannot lose messages and never times out.
        rpc_backoff_base_s: first retry delay of the capped exponential
            backoff (doubles per attempt, plus deterministic jitter).
        rpc_backoff_cap_s: upper bound on the retry delay.
        rpc_max_attempts: transmissions per round trip before the proxy
            declares the certifier unreachable and sheds the batched update
            transactions with ``certifier-unreachable`` aborts.  0 retries
            forever (the round trip outlives any partition).
        max_queued_certifications: bound on update transactions queued
            behind the in-flight round trip; overflow is shed immediately
            with ``certifier-unreachable``, keeping admission slots free for
            read-only transactions while the certifier is unreachable.
            0 is unbounded (the pre-RPC behaviour).
    """

    max_concurrency: int = 8
    pull_interval_s: float = 0.5
    certification_latency_s: float = 0.004
    max_certification_batch: int = 64
    notification_latency_s: float = 0.002
    rpc_timeout_s: float = 0.02
    rpc_backoff_base_s: float = 0.01
    rpc_backoff_cap_s: float = 0.5
    rpc_max_attempts: int = 0
    max_queued_certifications: int = 0

    def __post_init__(self) -> None:
        if self.max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        if self.pull_interval_s <= 0:
            raise ValueError("pull_interval_s must be positive")
        if self.certification_latency_s < 0:
            raise ValueError("certification latency must be non-negative")
        if self.max_certification_batch <= 0:
            raise ValueError("max_certification_batch must be positive")
        if self.notification_latency_s < 0:
            raise ValueError("notification latency must be non-negative")
        if self.rpc_timeout_s <= 0:
            raise ValueError("rpc_timeout_s must be positive")
        if self.rpc_backoff_base_s < 0 or self.rpc_backoff_cap_s < 0:
            raise ValueError("RPC backoff delays must be non-negative")
        if self.rpc_backoff_cap_s < self.rpc_backoff_base_s:
            raise ValueError("rpc_backoff_cap_s must be >= rpc_backoff_base_s")
        if self.rpc_max_attempts < 0:
            raise ValueError("rpc_max_attempts cannot be negative")
        if self.max_queued_certifications < 0:
            raise ValueError("max_queued_certifications cannot be negative")


class AdmissionController:
    """Gatekeeper-style admission control: bounded in-database concurrency.

    The handoff is allocation-free: callers queue slotted *tasks* (anything
    with a no-argument ``start()`` method -- in practice the replica's
    ``TransactionContext``) rather than bound callables, so neither
    admission nor the release->admit handoff allocates.  ``queued`` is a
    maintained plain attribute, readable per dispatch (e.g. as a queueing
    pressure signal next to the routing table's outstanding counters)
    without touching the deque.
    """

    __slots__ = ("max_concurrency", "active", "queued", "_waiting",
                 "admitted_total", "queued_total")

    def __init__(self, max_concurrency: int) -> None:
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        self.max_concurrency = max_concurrency
        self.active = 0
        self.queued = 0
        self._waiting: Deque = deque()
        self.admitted_total = 0
        self.queued_total = 0

    def admit(self, task) -> None:
        """Start ``task`` now if a slot is free, otherwise queue it (FIFO)."""
        if self.active < self.max_concurrency:
            self.active += 1
            self.admitted_total += 1
            task.start()
        else:
            self.queued_total += 1
            self.queued += 1
            self._waiting.append(task)

    def release(self) -> None:
        """A transaction finished: free its slot and admit the next waiter.

        The release->admit handoff is inlined: when somebody is waiting the
        slot is passed straight to the head of the queue (``active`` never
        dips and re-climbs), which is both cheaper and preserves the
        invariant that the queue is non-empty only while every slot is
        taken.
        """
        if self.active <= 0:
            raise RuntimeError("release() without a matching admit()")
        if self.queued:
            self.queued -= 1
            self.admitted_total += 1
            self._waiting.popleft().start()
        else:
            self.active -= 1


class ReplicaProxy:
    """Per-replica middleware state: admission, filtering, propagation cursor."""

    __slots__ = ("replica_id", "config", "admission", "filter_tables",
                 "applied_version", "writesets_applied", "writesets_filtered",
                 "lag_index")

    def __init__(self, replica_id: int, config: Optional[ProxyConfig] = None) -> None:
        self.replica_id = replica_id
        self.config = config or ProxyConfig()
        self.admission = AdmissionController(self.config.max_concurrency)
        #: The certifier's lag-subscription index (installed by the replica):
        #: every cursor advance re-arms this proxy's notify-at version there,
        #: so commit batches find lagging replicas without scanning.  None
        #: for a standalone proxy outside a cluster.
        self.lag_index: Optional["LagSubscriptionIndex"] = None
        # Update filtering: the single source of truth for which tables'
        # writesets reach the database.  None means apply everything; a set
        # means apply only those tables.  The predicate is evaluated per
        # item by ``engine.apply_writesets_fast`` (which also drops tables
        # in ``dropped_tables``); nothing else re-implements it.
        self.filter_tables: Optional[Set[str]] = None
        # Versions applied so far (update-propagation cursor).
        self.applied_version = 0
        self.writesets_applied = 0
        self.writesets_filtered = 0

    # ------------------------------------------------------------------
    # Update filtering
    # ------------------------------------------------------------------
    def set_filter(self, tables: Optional[Set[str]]) -> None:
        """Install (or clear) the update-filtering table list."""
        self.filter_tables = set(tables) if tables is not None else None

    # ------------------------------------------------------------------
    # Propagation bookkeeping
    # ------------------------------------------------------------------
    def advance(self, version: int) -> None:
        if version > self.applied_version:
            self.applied_version = version
            index = self.lag_index
            if index is not None:
                index.advanced(self.replica_id, version)

    @property
    def filtering_enabled(self) -> bool:
        return self.filter_tables is not None
