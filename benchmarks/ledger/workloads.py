"""The benchmark's workloads and the simulated outputs read after each run.

Each workload is a closed loop of simulated clients (a fixed number per
replica, exponential think time) inside one single-threaded process.  Its
only input is the seed; everything the benchmark reports about the modelled
system is read afterwards from the program's public state, so nothing
inside ``src/`` is hooked.

* ``fig6-malb`` -- the Figure 6 dynamic configuration: TPC-W
  shopping -> browsing -> shopping over 16 replicas under MALB-SC, no update
  filtering, no observability.  Read-mostly; MALB's groups fit the modelled
  buffer pool.  At the pinned seed it is the repository's fig6 golden.
* ``ordering-uf`` -- the Figure 7 MALB-SC+UF run: TPC-W ordering
  (update-heavy) over 16 replicas.  Certification and filtered remote
  apply do real work.
* ``chaos-lc-obs`` -- the seeded chaos campaign (severity 0.6) with the
  policy swapped to LeastConnections, a full observability hub attached and
  the consistency invariants audited.  The only workload where the network
  model, certifier fail-over, recovery and the observability layer run;
  LeastConnections bypasses MALB and update filtering.

Why each was chosen, and what its traced pass shows, is recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

FIG6 = "fig6-malb"
ORDERING = "ordering-uf"
CHAOS = "chaos-lc-obs"

#: Workload seed used when none is given; ``fig6-malb`` at this seed
#: reproduces the repository's fig6 golden.
DEFAULT_SEED = 1
#: A seed kept out of tuning.  A later gain claim must also hold here.
HELD_OUT_SEED = 4099

#: The fig6 golden at ``DEFAULT_SEED`` (events, post-warm-up commits,
#: simulated tps to three decimals, certification aborts).
FIG6_GOLDEN = {"events": 1238320, "completed": 387287, "tps": 358.599,
               "aborts": 6}

#: Failure reasons of the metrics collector's taxonomy.  A certification
#: conflict is a failed attempt that is retried; the other four end the
#: client's transaction without a commit.
FAILURE_REASONS = ("certification-conflict", "retry-exhausted",
                   "certifier-unreachable", "crash-in-flight",
                   "drain-straggler")


@dataclass(frozen=True)
class Workload:
    name: str
    #: Runs the whole workload and returns what the checks need.
    run: Callable[[int], "Finished"]


@dataclass
class Finished:
    cluster: object
    warmup_s: float
    #: Chaos only: replicas crashed and came back, the invariant audit
    #: and the lost-update count.
    churn: bool = False
    violations: Optional[int] = None
    lost_updates: Optional[int] = None


def _fig6_config(seed: int):
    from repro.experiments.configs import figure6_configs
    return figure6_configs(seed=seed, phase_length_s=400.0)[0]


def _ordering_config(seed: int):
    from repro.experiments.configs import figure7_configs
    return next(c for c in figure7_configs(seed=seed)
                if c.policy == "MALB-SC+UF")


def _chaos_config(seed: int):
    from repro.experiments.chaos import chaos_soak_config
    config = chaos_soak_config(severity=0.6, seed=seed)
    # At the pinned seed the network and fault streams are the canonical
    # campaign's (101 and 11); other seeds move all three streams.
    return replace(config,
                   base=replace(config.base, policy="LeastConnections"),
                   net_seed=100 + seed, fault_seed=10 + seed)


def _chaos_hub():
    from repro.obs import ObservabilityHub
    return ObservabilityHub.full(snapshot_interval_s=5.0)


def _run_experiment(config_of: Callable[[int], object]):
    def run(seed: int) -> Finished:
        from repro.experiments.runner import build_cluster
        config = config_of(seed)
        cluster = build_cluster(config)
        cluster.run(duration_s=config.duration_s, warmup_s=config.warmup_s)
        return Finished(cluster, config.warmup_s)
    return run


def _run_chaos(seed: int) -> Finished:
    from repro.experiments.chaos import run_chaos
    config = _chaos_config(seed)
    hub = _chaos_hub()
    result = run_chaos(config, observability=hub)
    return Finished(hub.cluster, config.base.warmup_s, churn=True,
                    violations=len(result.report.violations),
                    lost_updates=result.lost_certified_updates)


WORKLOADS: Dict[str, Workload] = {
    FIG6: Workload(FIG6, _run_experiment(_fig6_config)),
    ORDERING: Workload(ORDERING, _run_experiment(_ordering_config)),
    CHAOS: Workload(CHAOS, _run_chaos),
}


class _FirstEvent(Exception):
    def __init__(self, sim: object) -> None:
        super().__init__()
        self.sim = sim


def run_first_event(workload: Workload, seed: int):
    """Run the workload's own path up to its first simulated event, then
    stop; returns the simulator.

    ``Simulator.run_until`` is replaced at class level while this runs by a
    stand-in that executes one event and stops the run, so the cluster is
    configured, built and started exactly as in a whole run.
    """
    from repro.sim.simulator import Simulator
    original = Simulator.__dict__["run_until"]

    def run_until(sim, end_time: float) -> None:
        sim.step()
        raise _FirstEvent(sim)

    Simulator.run_until = run_until  # type: ignore[method-assign]
    try:
        workload.run(seed)
    except _FirstEvent as stop:
        return stop.sim
    finally:
        Simulator.run_until = original  # type: ignore[method-assign]
    raise RuntimeError("%s finished without running an event" % workload.name)


class ResponseRecorder:
    """Collects post-warm-up response times from the completion stream.

    The metrics collector keeps only running sums, so the benchmark wraps
    ``MetricsCollector.record_completion`` at class level with this
    recorder to get the percentiles.  It is installed in every run, timed
    and traced alike, so both sides of any comparison pay its cost.
    """

    def __init__(self) -> None:
        # Machine doubles, not float objects: the samples live in the
        # measured process, and its peak RSS is a metric.
        self.samples = array("d")
        self.completions = 0

    def install(self) -> None:
        from repro.sim.metrics import MetricsCollector
        original = MetricsCollector.record_completion
        samples = self.samples
        append = samples.append
        recorder = self

        def record_completion(collector, time, transaction_type, replica_id,
                              response_time, is_update, read_bytes,
                              write_bytes):
            recorder.completions += 1
            if time >= collector.warmup_seconds:
                append(response_time)
            original(collector, time, transaction_type, replica_id,
                     response_time, is_update, read_bytes, write_bytes)

        MetricsCollector.record_completion = record_completion

    def reset(self) -> None:
        del self.samples[:]
        self.completions = 0


def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted list."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _replicas(finished: Finished) -> list:
    """Every replica that served in the run: live, crashed or retired."""
    cluster = finished.cluster
    replicas = list(cluster.replicas.values())
    if finished.churn:
        membership = cluster.membership
        replicas.extend(membership.returnable_replicas())
        replicas.extend(membership.retired.values())
    return replicas


def sim_outputs(finished: Finished, recorder: ResponseRecorder) -> Dict:
    """The simulated outputs of one run, read from public state.

    Every value is deterministic for a seed, so two runs of the same code
    and seed must produce equal dictionaries.
    """
    cluster = finished.cluster
    metrics = cluster.metrics
    reasons = dict(metrics.abort_reasons)
    clients = cluster.clients
    failed = sum(reasons.values())
    # Resolved attempts: every transaction the clients saw finish, plus one
    # attempt per certification conflict (each is retried in place).
    attempted = clients.requests_completed + reasons.get(
        "certification-conflict", 0)
    committed = metrics.completions_between(0.0, math.inf)
    ordered = sorted(recorder.samples)

    replicas = _replicas(finished)
    live = list(cluster.replicas.values())
    warmup = finished.warmup_s
    pool_stats = [r.engine.buffer_pool.stats for r in replicas]
    requested = sum(s.bytes_requested for s in pool_stats)
    missed = sum(s.bytes_missed for s in pool_stats)
    cert = cluster.certifier.stats
    allocator = getattr(cluster.balancer, "allocator", None)
    hub = cluster.observability
    tracer = hub.tracer if hub is not None else None
    return {
        "events": cluster.sim.events_processed,
        "attempted": attempted,
        "committed": committed,
        "failed": failed,
        "in_flight": clients.requests_issued - clients.requests_completed,
        "failure_reasons": dict(sorted(reasons.items())),
        "aborts": metrics.aborts,
        "completed": metrics.completed,
        "tps": metrics.throughput_tps(),
        "by_type": dict(sorted(metrics.completions_by_type().items())),
        "resp_samples": len(ordered),
        "resp_mean_s": metrics.average_response_time(),
        "resp_p50_s": _quantile(ordered, 0.50),
        "resp_p99_s": _quantile(ordered, 0.99),
        "recorded_completions": recorder.completions,
        "read_kb_per_txn": metrics.read_kb_per_transaction(),
        "write_kb_per_txn": metrics.write_kb_per_transaction(),
        "pool_accesses": sum(s.accesses for s in pool_stats),
        "pool_scans": sum(s.scans for s in pool_stats),
        "pool_hit_ratio": 1.0 - missed / requested if requested > 0 else 1.0,
        "pool_evicted_bytes": sum(s.evicted_bytes for s in pool_stats),
        "cert_requests": cert.requests,
        "cert_commits": cert.commits,
        "cert_aborts": cert.aborts,
        "cert_batches": cert.batches,
        "cert_batched_requests": cert.batched_requests,
        "cert_notifications": cert.notifications_sent,
        "cert_dedup_hits": cert.dedup_hits,
        "writesets_applied": sum(r.proxy.writesets_applied for r in replicas),
        "writesets_filtered": sum(r.proxy.writesets_filtered
                                  for r in replicas),
        "cpu_util": sum(r.resources.cpu.utilization(warmup)
                        for r in live) / len(live),
        "disk_util": sum(r.resources.disk.utilization(warmup)
                         for r in live) / len(live),
        "reallocations": allocator.version if allocator is not None else 0,
        "rpc_retries": sum(r.rpc_retries for r in replicas),
        "shed_unreachable": sum(r.shed_unreachable for r in replicas),
        "trace_events": tracer.event_count if tracer is not None else 0,
        "violations": finished.violations,
        "lost_updates": finished.lost_updates,
    }


def check_outputs(workload: str, seed: int, out: Dict) -> List[str]:
    """The per-run correctness checks; returns the failures found."""
    problems = []
    if out["committed"] + out["failed"] != out["attempted"]:
        problems.append("committed %d + failed %d != attempted %d"
                        % (out["committed"], out["failed"], out["attempted"]))
    unknown = set(out["failure_reasons"]) - set(FAILURE_REASONS)
    if unknown:
        problems.append("unknown failure reasons %s" % sorted(unknown))
    if out["resp_samples"] != out["completed"]:
        problems.append("%d response samples for %d completions"
                        % (out["resp_samples"], out["completed"]))
    if out["recorded_completions"] != out["committed"]:
        problems.append("%d completions recorded, %d counted"
                        % (out["recorded_completions"], out["committed"]))
    if out["completed"] <= 0 or out["tps"] <= 0:
        problems.append("no post-warm-up commits")
    if workload == FIG6 and seed == DEFAULT_SEED:
        got = {"events": out["events"], "completed": out["completed"],
               "tps": round(out["tps"], 3), "aborts": out["aborts"]}
        if got != FIG6_GOLDEN:
            problems.append("fig6 golden mismatch: %s != %s"
                            % (got, FIG6_GOLDEN))
    if workload == CHAOS:
        if out["violations"] != 0:
            problems.append("%s invariant violations" % out["violations"])
        if out["lost_updates"] != 0:
            problems.append("%s certified updates lost" % out["lost_updates"])
    return problems
