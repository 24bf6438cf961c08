"""Attaching observability to a running cluster.

:class:`ObservabilityHub` bundles the two halves of the observability layer
-- a :class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.registry.TelemetryRegistry` -- and knows how to wire them
into a :class:`~repro.replication.cluster.ReplicatedCluster`:

* every replica (present and future: the cluster instruments newcomers
  through ``cluster.observability``) gets ``replica.obs`` set, which arms
  the transaction-lifecycle trace points and the pull/eviction hooks;
* the registry gets gauges over every existing metrics island (certifier
  stats, buffer pools, admission controllers, routing table, monitor
  samples, the metrics collector's abort-reason taxonomy);
* optionally, a periodic simulator event snapshots the registry into a
  time-bucketed series.

The zero-overhead contract: a cluster with no hub attached stores ``None``
in ``cluster.observability`` / ``replica.obs`` / ``ctx.trace`` /
``pool.on_evict``, and every instrumentation site is a single attribute
load plus an ``is not None`` test (the same pre-bound no-op pattern the
``replica.metrics`` guard already uses).  Attaching a hub without a
snapshot interval schedules *no* simulator events, so even the event count
of a seeded run is bit-identical with the hub on or off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.obs.registry import TelemetryRegistry
from repro.obs.trace import Tracer

if TYPE_CHECKING:
    from repro.elasticity.autoscaler import ScalingDecision
    from repro.replication.cluster import ReplicatedCluster
    from repro.replication.replica import Replica


class ObservabilityHub:
    """One attachable bundle of tracer + telemetry registry."""

    def __init__(self, tracer: Optional[Tracer] = None,
                 registry: Optional[TelemetryRegistry] = None,
                 trace_evictions: bool = False,
                 snapshot_interval_s: Optional[float] = None) -> None:
        self.tracer = tracer
        self.registry = registry
        #: Buffer-pool evictions fire many times per second on contended
        #: runs; eviction *counters* are always kept, but per-eviction trace
        #: instants are opt-in to bound trace size.
        self.trace_evictions = trace_evictions
        self.snapshot_interval_s = snapshot_interval_s
        self.cluster: Optional["ReplicatedCluster"] = None

    @classmethod
    def create(cls, tracing: bool = True, telemetry: bool = True,
               trace_evictions: bool = False,
               snapshot_interval_s: Optional[float] = None) -> "ObservabilityHub":
        return cls(tracer=Tracer() if tracing else None,
                   registry=TelemetryRegistry() if telemetry else None,
                   trace_evictions=trace_evictions,
                   snapshot_interval_s=snapshot_interval_s)

    @classmethod
    def full(cls, trace_evictions: bool = False,
             snapshot_interval_s: Optional[float] = None) -> "ObservabilityHub":
        """Both halves enabled."""
        return cls.create(tracing=True, telemetry=True,
                          trace_evictions=trace_evictions,
                          snapshot_interval_s=snapshot_interval_s)

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, cluster: "ReplicatedCluster",
               snapshot_interval_s: Optional[float] = None) -> "ObservabilityHub":
        """Wire this hub into ``cluster``; returns self for chaining.

        ``snapshot_interval_s`` (falling back to the constructor's value)
        schedules periodic registry snapshots -- note these are simulator
        events, so snapshotting changes ``events_processed``; leave it off
        when comparing against disabled-mode goldens.
        """
        if self.cluster is not None and self.cluster is not cluster:
            raise RuntimeError("hub is already attached to another cluster")
        self.cluster = cluster
        cluster.observability = self
        for replica in cluster.replicas.values():
            self.instrument_replica(replica)
        if self.registry is not None:
            self._register_cluster_gauges(cluster)
        interval = snapshot_interval_s if snapshot_interval_s is not None \
            else self.snapshot_interval_s
        if interval is not None and self.registry is not None:
            registry: TelemetryRegistry = self.registry
            cluster.sim.schedule_periodic(
                interval, lambda: registry.snapshot(cluster.sim.now))
        return self

    def instrument_replica(self, replica: "Replica") -> None:
        """Arm one replica's trace points (called for joiners too)."""
        replica.obs = self
        if self.tracer is not None:
            self.tracer.set_process_name(replica.replica_id,
                                         "replica %d" % replica.replica_id)
        pool = replica.engine.buffer_pool
        pool.on_evict = self._make_evict_hook(replica)

    def _make_evict_hook(self, replica: "Replica") -> Callable[[float], None]:
        registry = self.registry
        evictions = registry.counter("buffer.evictions") if registry else None
        evicted_bytes = registry.counter("buffer.evicted_bytes") if registry else None
        tracer = self.tracer if self.trace_evictions else None
        sim = replica.sim
        replica_id = replica.replica_id

        def on_evict(freed_bytes: float) -> None:
            if evictions is not None and evicted_bytes is not None:
                evictions.inc()
                evicted_bytes.inc(freed_bytes)
            if tracer is not None:
                tracer.instant("evict", "buffer", sim.now, replica_id,
                               args={"bytes": freed_bytes})

        return on_evict

    # ------------------------------------------------------------------
    # Cold-path event sinks (called through ``cluster.observability``)
    # ------------------------------------------------------------------
    def record_pull(self, replica_id: int, trigger: str, fetched: int,
                    now: float) -> None:
        """A propagation pull completed (periodic tick or lag notification)."""
        registry = self.registry
        if registry is not None:
            registry.counter("pulls.%s" % trigger).inc()
            if fetched:
                registry.counter("pulls.writesets_fetched").inc(fetched)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("pull", "propagation", now, replica_id,
                           args={"trigger": trigger, "fetched": fetched})

    def membership_event(self, now: float, kind: str, replica_id: int,
                         detail: str) -> None:
        if self.registry is not None:
            self.registry.counter("membership.%s" % kind).inc()
        if self.tracer is not None:
            self.tracer.instant(kind, "membership", now, replica_id,
                                args={"detail": detail})

    def fault_event(self, now: float, kind: str, replica_id: int,
                    detail: str) -> None:
        if self.registry is not None:
            self.registry.counter("faults.%s" % kind).inc()
        if self.tracer is not None:
            self.tracer.instant(kind, "fault", now, replica_id,
                                args={"detail": detail})

    def rpc_event(self, replica_id: int, kind: str, now: float,
                  args: Optional[Dict[str, object]] = None) -> None:
        """An at-least-once certification RPC event (timeout, retry,
        stale-response, shed) at one proxy.  Only fired in channel mode."""
        if self.registry is not None:
            self.registry.counter("rpc.%s" % kind).inc()
        if self.tracer is not None:
            self.tracer.instant(kind, "rpc", now, replica_id, args=args)

    def autoscaler_event(self, decision: "ScalingDecision") -> None:
        if self.registry is not None:
            self.registry.counter("autoscaler.%s" % decision.action).inc()
        if self.tracer is not None:
            self.tracer.instant(decision.action, "autoscaler", decision.time, -1,
                                args={"replicas_before": decision.replicas_before,
                                      "replicas_after": decision.replicas_after,
                                      "utilisation": decision.utilisation,
                                      "detail": decision.detail})

    # ------------------------------------------------------------------
    # Gauges over the existing metrics islands
    # ------------------------------------------------------------------
    def _register_cluster_gauges(self, cluster: "ReplicatedCluster") -> None:
        registry = self.registry
        if registry is None:
            return
        # Duck-typed seam: Certifier and ReplicatedCertifierLog both expose
        # the stats/current_version surface.
        certifier: Any = cluster.certifier
        metrics = cluster.metrics
        routing = cluster.routing

        registry.gauge("cluster.replicas_in_service",
                       lambda: len(cluster.replicas))
        registry.gauge("cluster.routing_version", lambda: routing.version)
        registry.gauge("cluster.outstanding_total",
                       lambda: sum(routing.outstanding.get(rid, 0)
                                   for rid in routing.replica_ids()))
        registry.gauge("admission.queued_total",
                       lambda: sum(r.proxy.admission.queued
                                   for r in cluster.replicas.values()))
        registry.gauge("admission.admitted_total",
                       lambda: sum(r.proxy.admission.admitted_total
                                   for r in cluster.replicas.values()))

        registry.gauge("certifier.requests", lambda: certifier.stats.requests)
        registry.gauge("certifier.commits", lambda: certifier.stats.commits)
        registry.gauge("certifier.aborts", lambda: certifier.stats.aborts)
        registry.gauge("certifier.notifications_sent",
                       lambda: certifier.stats.notifications_sent)
        registry.gauge("certifier.batches", lambda: certifier.stats.batches)
        registry.gauge("certifier.batched_requests",
                       lambda: certifier.stats.batched_requests)
        registry.gauge("certifier.current_version",
                       lambda: certifier.current_version)
        # cluster.certifier may be a ReplicatedCertifierLog wrapper; resolve
        # the (possibly failed-over) leader at sample time for its log.
        registry.gauge("certifier.log_entries",
                       lambda: len(getattr(certifier, "leader", certifier).log))

        def buffer_totals() -> Dict[str, float]:
            requested = missed = resident = evicted = 0.0
            for replica in cluster.replicas.values():
                stats = replica.engine.buffer_pool.stats
                requested += stats.bytes_requested
                missed += stats.bytes_missed
                resident += replica.engine.buffer_pool.resident_bytes
                evicted += stats.evicted_bytes
            hit_ratio = 1.0 if requested <= 0 else 1.0 - missed / requested
            return {"resident_bytes": resident, "evicted_bytes": evicted,
                    "hit_ratio": hit_ratio}

        registry.gauge("buffer.totals", buffer_totals)
        registry.gauge("propagation.writesets_applied",
                       lambda: sum(r.proxy.writesets_applied
                                   for r in cluster.replicas.values()))
        registry.gauge("propagation.writesets_filtered",
                       lambda: sum(r.proxy.writesets_filtered
                                   for r in cluster.replicas.values()))

        registry.gauge("metrics.completed", lambda: metrics.completed)
        registry.gauge("metrics.updates_completed",
                       lambda: metrics.updates_completed)
        registry.gauge("metrics.aborts", lambda: metrics.aborts)
        registry.gauge("metrics.abort_reasons",
                       lambda: dict(sorted(metrics.abort_reasons.items())))

        def monitor_means() -> Dict[str, float]:
            loads = cluster.monitor.loads()
            if not loads:
                return {"cpu": 0.0, "disk": 0.0}
            n = float(len(loads))
            return {"cpu": sum(s.cpu for s in loads.values()) / n,
                    "disk": sum(s.disk for s in loads.values()) / n}

        registry.gauge("monitor.mean_load", monitor_means)

        def replica_detail() -> Dict[str, Dict[str, object]]:
            loads = cluster.monitor.loads()
            detail: Dict[str, Dict[str, object]] = {}
            for rid in sorted(cluster.replicas):
                replica = cluster.replicas[rid]
                pool = replica.engine.buffer_pool
                sample = loads.get(rid)
                detail[str(rid)] = {
                    "outstanding": routing.outstanding.get(rid, 0),
                    "queued": replica.proxy.admission.queued,
                    "lag": replica.lag,
                    "applied_version": replica.proxy.applied_version,
                    "buffer_resident_bytes": pool.resident_bytes,
                    "buffer_hit_ratio": pool.stats.hit_ratio,
                    "cpu": sample.cpu if sample is not None else 0.0,
                    "disk": sample.disk if sample is not None else 0.0,
                }
            return detail

        registry.gauge("replicas.detail", replica_detail)

        if cluster.network is not None:
            network = cluster.network
            registry.gauge("net.summary", network.summary)
            registry.gauge("rpc.timeouts_total",
                           lambda: sum(r.rpc_timeouts
                                       for r in cluster.replicas.values()))
            registry.gauge("rpc.retries_total",
                           lambda: sum(r.rpc_retries
                                       for r in cluster.replicas.values()))
            registry.gauge("rpc.stale_responses_total",
                           lambda: sum(r.rpc_stale_responses
                                       for r in cluster.replicas.values()))
            registry.gauge("rpc.shed_unreachable_total",
                           lambda: sum(r.shed_unreachable
                                       for r in cluster.replicas.values()))
            registry.gauge("certifier.dedup_hits",
                           lambda: certifier.stats.dedup_hits)
            registry.gauge("certifier.stale_requests",
                           lambda: certifier.stats.stale_requests)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def final_snapshot(self) -> Optional[Dict[str, object]]:
        """Take one last registry snapshot at the attached cluster's now."""
        if self.registry is None:
            return None
        now = self.cluster.sim.now if self.cluster is not None else 0.0
        return self.registry.snapshot(now)

    def export_trace(self, path: str) -> None:
        if self.tracer is None:
            raise RuntimeError("no tracer attached to this hub")
        self.tracer.export(path)

    def export_telemetry(self, path: str) -> None:
        if self.registry is None:
            raise RuntimeError("no registry attached to this hub")
        self.final_snapshot()
        extra: Dict[str, object] = {}
        if self.tracer is not None:
            extra["stage_latency"] = self.tracer.stages.to_dict()
        self.registry.export(path, extra=extra)
