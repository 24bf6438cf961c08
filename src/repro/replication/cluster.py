"""The replicated cluster: replicas, certifier, load balancer and clients wired together.

:class:`ReplicatedCluster` is the simulated counterpart of the whole testbed
of Section 4.4: N replica machines (each a CPU, a disk and a database
engine with a bounded buffer pool), the replicated certifier, the load
balancer in front, the monitoring daemons feeding it utilisation data, and a
closed-loop client population.  It also implements the
:class:`~repro.core.balancer.ClusterView` protocol, i.e. it *is* the narrow
interface through which load-balancing policies observe the system.

A cluster with ``num_replicas=1`` and a round-robin balancer doubles as the
"Single" standalone database bar of Figures 3, 4 and 7.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.core.balancer import LoadBalancer
from repro.core.routing import RoutingTable
from repro.net.channel import Network, NetworkConfig
from repro.replication.certifier import Certifier
from repro.replication.proxy import ProxyConfig
from repro.replication.recovery import ReplicatedCertifierLog
from repro.replication.replica import Replica

if TYPE_CHECKING:
    from repro.elasticity.membership import MembershipManager
    from repro.obs.hub import ObservabilityHub
from repro.sim.clients import ClientConfig, ClientPopulation
from repro.sim.metrics import MetricsCollector
from repro.sim.monitor import ClusterMonitor, LoadSample
from repro.sim.resources import ReplicaResources
from repro.sim.simulator import Simulator
from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.disk import DiskModel
from repro.storage.engine import DatabaseEngine, EngineConfig
from repro.storage.pages import mb
from repro.storage.planner import QueryPlanner
from repro.workloads.generator import WorkloadGenerator, WorkloadSchedule
from repro.workloads.spec import TransactionType, WorkloadSpec

#: Memory reserved for the OS, PostgreSQL processes, proxy and monitoring
#: daemons; subtracted from physical RAM before sizing buffer pools and
#: before bin packing (Section 4.4).
DEFAULT_MEMORY_OVERHEAD_BYTES = mb(70)


@dataclass
class ClusterConfig:
    """Configuration of one experiment's cluster."""

    num_replicas: int = 16
    replica_ram_bytes: int = mb(512)
    memory_overhead_bytes: int = DEFAULT_MEMORY_OVERHEAD_BYTES
    clients_per_replica: int = 10
    think_time_s: float = 0.5
    disk: DiskModel = field(default_factory=DiskModel)
    engine: EngineConfig = field(default_factory=EngineConfig)
    proxy: ProxyConfig = field(default_factory=ProxyConfig)
    monitor_interval_s: float = 5.0
    balancer_period_s: float = 5.0
    propagation_interval_s: float = 0.5
    #: How often the certifier log is truncated to the version every replica
    #: (live, draining or crashed-but-restorable) has already applied, so the
    #: log stops growing without bound on long runs.  0 disables truncation.
    log_truncation_interval_s: float = 30.0
    warm_start: bool = True
    seed: int = 1
    #: Number of synchronous certifier backups (the paper runs a leader plus
    #: two).  0 keeps the single logical certifier; > 0 wires in a
    #: :class:`~repro.replication.recovery.ReplicatedCertifierLog` so the
    #: fault injector can fail the leader over mid-run.
    certifier_backups: int = 0
    #: Unreliable-network model (:class:`repro.net.channel.NetworkConfig`).
    #: ``None`` -- the default -- builds no channels at all: certification
    #: round trips and lag notifications take the direct loss-free defer
    #: path, keeping every seeded golden bit-identical.  Set a config (even
    #: a perfect one) to route them over per-replica channels with
    #: schedulable partitions, drops, duplication and jitter, and to switch
    #: certification to at-least-once RPC.
    network: Optional[NetworkConfig] = None

    def __post_init__(self) -> None:
        if self.num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if self.certifier_backups < 0:
            raise ValueError("certifier_backups cannot be negative")
        if self.log_truncation_interval_s < 0:
            raise ValueError("log_truncation_interval_s cannot be negative")
        if self.replica_ram_bytes <= self.memory_overhead_bytes:
            raise ValueError("replica RAM must exceed the fixed memory overhead")
        if self.clients_per_replica <= 0:
            raise ValueError("clients_per_replica must be positive")

    @property
    def buffer_bytes(self) -> int:
        """Memory actually available for database pages at one replica."""
        return self.replica_ram_bytes - self.memory_overhead_bytes

    @property
    def total_clients(self) -> int:
        return self.num_replicas * self.clients_per_replica


@dataclass
class RunResult:
    """Everything an experiment needs from one simulated run."""

    policy: str
    config: ClusterConfig
    metrics: MetricsCollector
    groupings: Dict[str, List[str]] = field(default_factory=dict)
    replica_counts: Dict[str, int] = field(default_factory=dict)
    certifier_aborts: int = 0

    @property
    def throughput_tps(self) -> float:
        return self.metrics.throughput_tps()

    @property
    def response_time_s(self) -> float:
        return self.metrics.average_response_time()

    @property
    def read_kb_per_txn(self) -> float:
        return self.metrics.read_kb_per_transaction()

    @property
    def write_kb_per_txn(self) -> float:
        return self.metrics.write_kb_per_transaction()


class _Notification:
    """A lag notification in flight from the certifier to one proxy.

    Cancel-aware: the notification only fires if its replica's entry is
    still in the pending set.  The entry disappears when the replica
    crashes (``_purge_replica_state``), when an unreliable channel drops the
    message (:meth:`drop`, invoked at the drop decision so a fresh
    notification can be sent instead of the dedup entry leaking forever),
    or when a duplicated delivery already consumed it.
    """

    __slots__ = ("pending", "replica")

    def __init__(self, pending: Set[int], replica: Replica) -> None:
        self.pending = pending
        self.replica = replica

    def __call__(self) -> None:
        replica_id = self.replica.replica_id
        if replica_id not in self.pending:
            return
        self.pending.discard(replica_id)
        self.replica.pull_updates(trigger="notification")

    def drop(self) -> None:
        """The channel lost this notification: release the dedup entry."""
        self.pending.discard(self.replica.replica_id)


class _InFlight:
    """The completion continuation of one admitted transaction.

    Slotted and allocated once per admission (the request path's only
    per-transaction allocation on the cluster side); registered in the
    replica's in-flight table until it runs, so a crash can fail every
    registered continuation while the pop guarantees each runs at most once
    (a late continuation of a crash-failed transaction is a no-op).
    """

    __slots__ = ("cluster", "pending", "token", "replica_id", "txn_type",
                 "on_complete")

    def __init__(self, cluster: "ReplicatedCluster", pending: Dict[int, "_InFlight"],
                 token: int, replica_id: int, txn_type: TransactionType,
                 on_complete: Callable[[], None]) -> None:
        self.cluster = cluster
        self.pending = pending
        self.token = token
        self.replica_id = replica_id
        self.txn_type = txn_type
        self.on_complete = on_complete

    def __call__(self, committed: bool) -> None:
        if self.pending.pop(self.token, None) is None:
            return
        cluster = self.cluster
        replica_id = self.replica_id
        cluster.routing.on_complete(replica_id)
        hook = cluster._complete_hook
        if hook is not None:
            hook(replica_id, self.txn_type)
        self.on_complete()


class ReplicatedCluster:
    """Builds and runs one replicated-database configuration."""

    def __init__(self, workload: WorkloadSpec, balancer: LoadBalancer,
                 config: Optional[ClusterConfig] = None,
                 schedule: Optional[WorkloadSchedule] = None,
                 mix: Optional[str] = None) -> None:
        self._workload = workload
        self.balancer = balancer
        self.config = config or ClusterConfig()
        if schedule is None:
            if mix is None:
                raise ValueError("provide either a mix name or a workload schedule")
            schedule = WorkloadSchedule.constant(mix)
        self.schedule = schedule

        self.sim = Simulator()
        self._catalog = Catalog(schema=workload.schema)
        self._planner = QueryPlanner(catalog=self._catalog)
        if self.config.certifier_backups > 0:
            self.certifier = ReplicatedCertifierLog.create(
                self.config.certifier_backups)
        else:
            self.certifier = Certifier()
        self.monitor = ClusterMonitor(self.sim, interval=self.config.monitor_interval_s)
        self.metrics = MetricsCollector(warmup_seconds=0.0)
        #: Observability hub (repro.obs.ObservabilityHub) or None.  Set by
        #: hub.attach(); the cold-path subsystems (membership, faults,
        #: autoscaler) publish events through it when present.  Must exist
        #: before _build_replicas so joiners can be instrumented uniformly.
        self.observability: Optional["ObservabilityHub"] = None
        #: Consistency checker (repro.net.invariants.ConsistencyChecker) or
        #: None.  Installed by the checker itself; replicas built while it
        #: is present get an apply ledger armed.  Same contract as
        #: ``observability``: must exist before _build_replicas.
        self.consistency = None
        #: The unreliable-network model, or None for the direct defer path.
        self.network = Network(self.sim, self.config.network) \
            if self.config.network is not None else None
        self.replicas: Dict[int, Replica] = {}
        #: event-maintained routing state (outstanding counters, live-replica
        #: cache, effective loads) shared with the balancer through the view.
        self.routing = RoutingTable()
        self.monitor.on_sample = self.routing.publish_load
        self._inflight: Dict[int, Dict[int, Callable[[bool], None]]] = {}
        self._inflight_token = 0
        self._pulls_scheduled: Set[int] = set()
        self._notify_pending: Set[int] = set()
        self._next_replica_id = 0
        self._membership: Optional["MembershipManager"] = None
        self._started = False
        self._build_replicas()
        self.generator = WorkloadGenerator(spec=self._workload, schedule=self.schedule,
                                           seed=self.config.seed)
        self.clients = ClientPopulation(
            sim=self.sim,
            config=ClientConfig(
                clients=self.config.total_clients,
                think_time_s=self.config.think_time_s,
                seed=self.config.seed,
            ),
            generator=self.generator,
            submit=self._submit,
        )
        # Dispatch/complete notifications are opt-in per policy class (none
        # of the built-in policies override the hooks), so the admission
        # fast path does not pay a no-op Python call per transaction.
        self._dispatch_hook = (
            self.balancer.on_dispatch
            if type(self.balancer).on_dispatch is not LoadBalancer.on_dispatch
            else None)
        self._complete_hook = (
            self.balancer.on_complete
            if type(self.balancer).on_complete is not LoadBalancer.on_complete
            else None)
        self.balancer.attach(self)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_replicas(self) -> None:
        for _ in range(self.config.num_replicas):
            self._activate_replica(self._make_replica(self._claim_replica_id()))

    def _claim_replica_id(self) -> int:
        replica_id = self._next_replica_id
        self._next_replica_id += 1
        return replica_id

    def _make_replica(self, replica_id: int) -> Replica:
        """Build one replica machine (engine + resources + proxy), unwired."""
        buffer_pool = BufferPool(capacity_bytes=self.config.buffer_bytes)
        engine = DatabaseEngine(
            catalog=self._catalog,
            buffer_pool=buffer_pool,
            config=self.config.engine,
            rng=random.Random(self.config.seed * 1000 + replica_id),
        )
        resources = ReplicaResources.create(self.sim, replica_id)
        network = self.network
        replica = Replica(
            replica_id=replica_id,
            sim=self.sim,
            engine=engine,
            resources=resources,
            certifier=self.certifier,
            disk_model=self.config.disk,
            proxy_config=self.config.proxy,
            channel=network.link(replica_id) if network is not None else None,
        )
        replica.metrics = self.metrics
        replica.on_local_commit = self._on_local_commit
        obs = self.observability
        if obs is not None:
            obs.instrument_replica(replica)
        if self.consistency is not None:
            self.consistency.arm(replica)
        return replica

    def _activate_replica(self, replica: Replica) -> None:
        """Put a replica in service: dispatchable, monitored, pulling updates."""
        replica_id = replica.replica_id
        self.replicas[replica_id] = replica
        self.routing.add_replica(replica_id)
        self._inflight.setdefault(replica_id, {})
        self.monitor.register(replica_id, replica.resources)
        # Register the propagation cursor with the certifier's lag index so
        # commit batches can find this replica when it falls behind; every
        # subsequent proxy.advance re-arms the entry.
        self.certifier.subscriptions.subscribe(replica_id,
                                               replica.proxy.applied_version)
        if self._started:
            self._schedule_pulls(replica)

    def _deactivate_replica(self, replica_id: int) -> Replica:
        """Take a replica out of service (crash or graceful leave).

        It disappears from the balancer's view, the monitor and the
        certifier's lag-subscription index; outstanding counters are kept so
        draining and crash-failing stay accountable.
        """
        replica = self.replicas.pop(replica_id)
        self.routing.remove_replica(replica_id)
        self.monitor.unregister(replica_id)
        self.certifier.subscriptions.unsubscribe(replica_id)
        return replica

    def _schedule_pulls(self, replica: Replica) -> None:
        """Start the replica's periodic update pull, once per replica id.

        The loop stops itself when the replica leaves service (crash,
        drain or retirement), so dead replicas do not keep firing no-op
        events; re-activation schedules a fresh loop.
        """
        replica_id = replica.replica_id
        if replica_id in self._pulls_scheduled:
            return
        self._pulls_scheduled.add(replica_id)

        def tick() -> None:
            if self.replicas.get(replica_id) is not replica:
                self._pulls_scheduled.discard(replica_id)
                return
            replica.pull_updates()
            self.sim.defer(self.config.propagation_interval_s, tick)

        self.sim.defer(self.config.propagation_interval_s, tick)

    def _fail_inflight(self, replica_id: int,
                       reason: str = "crash-in-flight") -> int:
        """Fail every transaction in flight at a (crashed) replica.

        The clients' completion callbacks run with ``committed=False`` so
        closed-loop clients immediately re-issue elsewhere.  ``reason`` feeds
        the abort-reason taxonomy ("crash-in-flight" or "drain-straggler");
        these failures are not certification aborts, so ``metrics.aborts``
        is untouched.  Returns the number of transactions failed.
        """
        pending = self._inflight.get(replica_id, {})
        failed = 0
        for done in list(pending.values()):
            done(False)
            failed += 1
        if failed:
            self.metrics.record_failure(reason, failed)
        return failed

    def _purge_replica_state(self, replica_id: int) -> None:
        """Drop the last traces of a replica that has fully left.

        Deactivation intentionally keeps the routing outstanding counter (so
        draining and crash-failing stay accountable); once the in-flight set
        is resolved, this clears the counter, any load sample the replica
        pushed before leaving, and its empty in-flight table, so no stale
        state can influence later routing decisions or linger in snapshots.
        """
        self.routing.purge_replica(replica_id)
        self._inflight.pop(replica_id, None)
        # Release any lag-notification dedup entry so a restored replica can
        # be notified again; the in-flight _Notification (if any) is
        # cancel-aware and fizzles when it lands.  The certifier's RPC dedup
        # cache is deliberately NOT purged: forgetting served request ids
        # would let a delayed duplicate request be re-certified.
        self._notify_pending.discard(replica_id)

    def notify_membership_changed(self) -> None:
        """Tell the balancer the replica set changed and re-push filters.

        Pending demand counters are drained first so a policy re-sizing its
        allocation to the new membership sees the mix up to this instant,
        exactly as per-dispatch accounting would have.
        """
        self._drain_mix_counts()
        self.balancer.on_membership_change()
        self._install_filters()

    # ------------------------------------------------------------------
    # Live membership (elasticity)
    # ------------------------------------------------------------------
    @property
    def membership(self) -> "MembershipManager":
        """The cluster's live-membership API (lazily constructed)."""
        if self._membership is None:
            from repro.elasticity.membership import MembershipManager
            self._membership = MembershipManager(self)
        return self._membership

    def add_replica(self) -> int:
        """Grow the cluster by one replica (cold cache, catches up from the log)."""
        return self.membership.add_replica()

    def remove_replica(self, replica_id: int, drain: bool = True) -> None:
        """Shrink the cluster, draining the replica's in-flight work first."""
        self.membership.remove_replica(replica_id, drain=drain)

    def crash_replica(self, replica_id: int) -> Replica:
        """Fail a replica abruptly; its in-flight transactions are lost."""
        return self.membership.crash_replica(replica_id)

    def restore_replica(self, replica_id: int) -> int:
        """Bring a crashed replica back; returns the writesets replayed."""
        return self.membership.restore_replica(replica_id)

    # ------------------------------------------------------------------
    # ClusterView protocol (what the load balancer may see)
    # ------------------------------------------------------------------
    def replica_ids(self) -> List[int]:
        return list(self.routing.replica_ids())

    def outstanding(self, replica_id: int) -> int:
        return self.routing.outstanding_of(replica_id)

    def load(self, replica_id: int) -> LoadSample:
        return self.monitor.load_of(replica_id)

    def replica_memory_bytes(self) -> int:
        return self.config.buffer_bytes

    def catalog(self) -> Catalog:
        return self._catalog

    def planner(self) -> QueryPlanner:
        return self._planner

    def workload(self) -> WorkloadSpec:
        return self._workload

    def workload_spec(self) -> WorkloadSpec:
        return self._workload

    # ------------------------------------------------------------------
    # Transaction flow
    # ------------------------------------------------------------------
    def _submit(self, txn_type: TransactionType, client_id: int,
                on_complete) -> None:
        replica_id = self.balancer.dispatch(txn_type)
        replica = self.replicas.get(replica_id)
        if replica is None:
            raise KeyError("balancer chose unknown replica %r" % (replica_id,))
        self.routing.on_dispatch(replica_id)
        if self._dispatch_hook is not None:
            self._dispatch_hook(replica_id, txn_type)
        token = self._inflight_token = self._inflight_token + 1
        pending = self._inflight[replica_id]
        done = _InFlight(self, pending, token, replica_id, txn_type, on_complete)
        pending[token] = done
        replica.submit(txn_type, self.sim.now, done)

    def _on_local_commit(self, origin: Replica) -> None:
        """Piggyback propagation: the committing replica is already up to date;
        other replicas receive the writeset at their next pull (within the
        propagation interval), mirroring the prototype's 500 ms pull plus
        lag-notification scheme.  A lag notification is a certifier-to-proxy
        message, so the pull it triggers pays the one-way notification
        latency instead of happening instantaneously at commit time --
        ``notification_latency_s == 0`` still goes through the event queue
        (a zero-delay defer), never through a synchronous pull inside the
        origin's commit processing.  At most one notification per replica is
        in flight: further commits before it lands would only tell the proxy
        what it is already about to learn.

        The replicas to notify come from the certifier's lag-subscription
        index: each proxy's cursor is bucketed by the version at which it
        crosses the notification threshold, so this costs O(notified), not
        O(replicas), per certification batch."""
        certifier = self.certifier
        crossed = certifier.subscriptions.crossed(certifier.current_version)
        if not crossed:
            return
        latency = self.config.proxy.notification_latency_s
        origin_id = origin.replica_id
        pending = self._notify_pending
        replicas = self.replicas
        stats = certifier.stats
        sim = self.sim
        for replica_id in crossed:
            if replica_id == origin_id or replica_id in pending:
                # The origin applies this batch's piggyback right after the
                # hook returns, and an in-flight notification's pull always
                # catches the replica up: either way the cursor advance
                # re-arms the subscription at the fresh lag target.
                continue
            replica = replicas.get(replica_id)
            if replica is None:
                continue
            stats.notifications_sent += 1
            pending.add(replica_id)
            # pull_updates checks liveness when the message lands, so a
            # replica that crashes in between simply drops it.
            note = _Notification(pending, replica)
            channel = replica.channel
            if channel is None:
                sim.defer(latency, note)
            else:
                # Notifications ride the same unreliable link as the RPCs;
                # a lost one releases its dedup entry at the drop decision
                # (note.drop), and the periodic pull backstops it anyway.
                channel.deliver(latency, note, on_drop=note.drop)

    def _install_filters(self) -> None:
        """Push the balancer's current update-filtering decision to the proxies."""
        for replica_id, replica in self.replicas.items():
            replica.proxy.set_filter(self.balancer.filter_tables(replica_id))

    def _drain_mix_counts(self) -> None:
        """Stream the generator's issue counters to the balancer in batch.

        The generator counts every issued transaction type with an integer
        bump; this folds the accumulated deltas into the balancer's demand
        estimate.  Called before every balancer tick and membership change,
        so a policy reading its estimate at those points sees exactly what
        per-dispatch accounting would have shown it.
        """
        counts = self.generator.drain_type_counts()
        if counts:
            self.balancer.ingest_mix_counts(counts)

    # ------------------------------------------------------------------
    # Certifier-log truncation
    # ------------------------------------------------------------------
    def certifier_truncation_floor(self) -> int:
        """Oldest version any current or returning replica could still need.

        The floor is the minimum over (a) the applied version of every
        replica that may yet pull or replay from the log -- in service,
        draining, or crashed but restorable -- and (b) the oldest snapshot
        of any in-flight transaction, because certification compares a
        writeset against everything committed since its snapshot.  Retired
        replicas never return and are excluded; membership churn from the
        elasticity subsystem is therefore respected by construction.
        """
        replicas = list(self.replicas.values())
        if self._membership is not None:
            replicas.extend(self._membership.returnable_replicas())
        if not replicas:
            return 0
        floor = min(replica.proxy.applied_version for replica in replicas)
        for replica in replicas:
            oldest = replica.engine.snapshots.oldest_active_snapshot()
            if oldest is not None and oldest < floor:
                floor = oldest
        return floor

    def truncate_certifier_log(self) -> int:
        """Drop certifier-log entries below the truncation floor.

        Called periodically (``log_truncation_interval_s``); safe to call at
        any time.  Returns the number of entries dropped.
        """
        floor = self.certifier_truncation_floor()
        if floor <= 0:
            return 0
        return self.certifier.truncate(floor)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _warm_replicas(self) -> None:
        """Pre-warm replica buffer pools to the steady state the policy targets.

        Memory-aware policies warm each replica with the relations of its
        transaction groups; baselines (which have no affinity) warm every
        replica with a proportional slice of the whole database.  This makes
        short simulated runs measure steady-state behaviour instead of the
        cold-start transient; the dynamic-reconfiguration experiment still
        pays realistic re-warming costs whenever the allocation changes.
        """
        for replica_id, replica in self.replicas.items():
            relations = self.balancer.preferred_relations(replica_id)
            if relations is None:
                relations = {r.name: r.size_bytes for r in self._catalog.relations()}
            total = float(sum(relations.values()))
            if total <= 0:
                continue
            capacity = float(replica.engine.buffer_pool.capacity_bytes)
            fraction = min(1.0, capacity / total)
            for name, size in relations.items():
                replica.engine.buffer_pool.warm(name, size * fraction)

    def start(self) -> None:
        """Schedule all periodic machinery and start the clients (idempotent)."""
        if self._started:
            return
        self._started = True
        # Let the balancer see a sample of the incoming mix so it can size
        # its allocation before the measurement starts, then warm the caches
        # to the steady state that allocation implies.
        preview = WorkloadGenerator(spec=self._workload, schedule=self.schedule,
                                    seed=self.config.seed + 7919)
        preview.sample_types(0.0, 2000)
        self.balancer.observe_mix(preview.drain_type_counts())
        if self.config.warm_start:
            self._warm_replicas()
        self.monitor.start()
        self.clients.start()
        # Update propagation: every replica pulls on the proxy's interval.
        for replica in self.replicas.values():
            self._schedule_pulls(replica)
        # Load-balancer periodic work (re-allocation, filter activation),
        # fed the demand counters accumulated since the previous tick.
        def balancer_tick() -> None:
            self._drain_mix_counts()
            self.balancer.periodic(self.sim.now)
            self._install_filters()

        self.sim.schedule_periodic(self.config.balancer_period_s, balancer_tick)
        # Certifier-log truncation: without it the log retains every
        # writeset ever certified, a memory leak on long runs.
        if self.config.log_truncation_interval_s > 0:
            self.sim.schedule_periodic(self.config.log_truncation_interval_s,
                                       lambda: self.truncate_certifier_log())

    def run(self, duration_s: float, warmup_s: float = 0.0) -> RunResult:
        """Run the simulation for ``duration_s`` simulated seconds."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if warmup_s < 0 or warmup_s >= duration_s:
            raise ValueError("warmup must be shorter than the run")
        self.metrics.warmup_seconds = warmup_s
        self.start()
        self.sim.run_until(duration_s)
        return self.collect_result()

    def collect_result(self) -> RunResult:
        groupings: Dict[str, List[str]] = {}
        replica_counts: Dict[str, int] = {}
        if hasattr(self.balancer, "groupings"):
            groupings = self.balancer.groupings()           # type: ignore[attr-defined]
        if hasattr(self.balancer, "replica_counts"):
            replica_counts = self.balancer.replica_counts()  # type: ignore[attr-defined]
        return RunResult(
            policy=self.balancer.name,
            config=self.config,
            metrics=self.metrics,
            groupings=groupings,
            replica_counts=replica_counts,
            certifier_aborts=self.certifier.stats.aborts,
        )


def standalone_config(base: Optional[ClusterConfig] = None,
                      ram_bytes: int = mb(1024)) -> ClusterConfig:
    """Configuration for the "Single" standalone database reference point.

    One replica with the full 1 GB of machine memory and the same client
    intensity per replica as the clustered runs.
    """
    base = base or ClusterConfig()
    return replace(base, num_replicas=1, replica_ram_bytes=ram_bytes)
