"""One database replica: engine + proxy + CPU/disk resources + GSI commit path.

The replica wires the storage engine's resource demands into the event loop.
Each transaction is tracked by a slotted :class:`TransactionContext` that
moves through an explicit lifecycle::

    ADMITTED -> CPU -> READS -> CERTIFYING -> DONE

* a transaction admitted by the proxy executes against the local buffer
  pool, queues for the CPU, then queues for the disk channel to read its
  misses (ADMITTED -> CPU -> READS);
* read-only transactions then commit locally (GSI lets them run entirely at
  the replica, Section 4.1);
* update transactions enter CERTIFYING: the proxy batches certification
  requests, keeping at most one round trip to the certifier outstanding.
  Update transactions that reach certification while a round trip is in
  flight join the next batch, so concurrent updates share the
  ``certification_latency_s`` they would each have paid alone
  (Sections 3.2/4.2);
* the certification response piggybacks every writeset committed since the
  replica's applied version.  The proxy applies those *before* delivering
  outcomes, so a committed transaction leaves the replica current and an
  aborted transaction retries against a fresh snapshot instead of burning
  its retries on the same stale one while waiting for the 500 ms pull;
* on commit the dirty pages are handed to the background writer (no fsync
  on the commit path -- Tashkent unites durability with ordering in the
  middleware), and the cluster propagates the writeset to the other
  replicas;
* remote writesets arriving through update propagation are applied as
  background CPU and disk work, competing with the replica's foreground
  transactions for the same resources -- the contention update filtering
  removes.

Every continuation is fenced by the replica's epoch: a crash bumps the
epoch, so continuations (CPU/disk completions, the certification round
trip) scheduled before the crash are dropped when they fire.

When the replica is built with an unreliable ``channel``
(:class:`~repro.net.channel.Channel`), the certification round trip runs as
an *at-least-once RPC*: each batch gets a per-proxy monotonically
increasing request id, is retransmitted on timeout with capped exponential
backoff and deterministic jitter, and is answered idempotently by the
certifier's dedup cache (:meth:`~repro.replication.certifier.Certifier.\
certify_rpc`), so duplication and retries never certify a writeset twice.
While the certifier is unreachable the proxy sheds overflowing update
transactions with ``certifier-unreachable`` aborts -- read-only
transactions keep committing from the local snapshot, the GSI-faithful
degradation.  Without a channel (the default) the round trip is the exact
single ``sim.defer`` it always was, preserving seeded outputs bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.obs.trace import CERTIFY, CPU, QUEUE, READS, STAGE_NAMES, TxnTrace
from repro.replication.certifier import Certifier
from repro.replication.proxy import AdmissionController, ProxyConfig, ReplicaProxy
from repro.replication.writeset import CertifiedWriteSet
from repro.sim.metrics import MetricsCollector
from repro.sim.resources import ReplicaResources
from repro.sim.simulator import Simulator
from repro.storage.disk import DiskModel
from repro.storage.engine import DatabaseEngine, TransactionWork
from repro.workloads.spec import TransactionType

if TYPE_CHECKING:
    from repro.obs.hub import ObservabilityHub

# Callback invoked when a submitted transaction finishes (committed=True/False).
CompletionCallback = Callable[[bool], None]


class TransactionContext:
    """The slotted lifecycle state of one transaction at a replica.

    Replaces the former per-transaction closure chain: the context is
    allocated once at submission and reused across retries (a retry re-runs
    the pipeline with a fresh snapshot but keeps the context, its admission
    slot and its attempt counter).  Stage continuations are bound methods on
    this object, so the steady-state transaction path allocates one context
    per transaction instead of a closure per stage per attempt.
    """

    ADMITTED = 0
    CPU = 1
    READS = 2
    CERTIFYING = 3
    DONE = 4

    __slots__ = ("replica", "txn_type", "submitted_at", "on_done", "attempt",
                 "state", "epoch", "txn_id", "snapshot", "work", "writeset",
                 "trace")

    def __init__(self, replica: "Replica", txn_type: TransactionType,
                 submitted_at: float, on_done: CompletionCallback) -> None:
        self.replica = replica
        self.txn_type = txn_type
        self.submitted_at = submitted_at
        self.on_done = on_done
        self.attempt = 1
        self.state = TransactionContext.ADMITTED
        self.epoch = replica.epoch
        self.txn_id = 0
        self.snapshot = 0
        self.work: Optional[TransactionWork] = None
        self.writeset = None
        # Per-transaction trace state; None unless an ObservabilityHub with
        # a tracer is attached (the zero-overhead fast path).
        self.trace: Optional[TxnTrace] = None

    # Stage continuations (scheduled on resources / the event queue) -------
    def start(self) -> None:
        """Admission-controller callback: the transaction got its slot."""
        self.replica._start(self)

    def after_cpu(self) -> None:
        replica = self.replica
        if replica.epoch != self.epoch:
            return
        self.state = TransactionContext.READS
        if self.trace is not None:
            replica._trace_lap(self, CPU)
        work = self.work
        read_time = replica.disk_model.read_seconds(
            work.random_read_bytes, work.sequential_read_bytes
        )
        if read_time > 0:
            replica.resources.disk.acquire(read_time, self.after_reads)
        else:
            self.after_reads()

    def after_reads(self) -> None:
        replica = self.replica
        if replica.epoch != self.epoch:
            return
        if self.trace is not None:
            replica._trace_lap(self, READS)
        if self.writeset is None:
            replica._finish(self, committed=True)
            return
        self.state = TransactionContext.CERTIFYING
        replica._enqueue_certification(self)


class Replica:
    """A single database replica participating in the replicated cluster."""

    def __init__(self, replica_id: int, sim: Simulator, engine: DatabaseEngine,
                 resources: ReplicaResources, certifier: Certifier,
                 disk_model: Optional[DiskModel] = None,
                 proxy_config: Optional[ProxyConfig] = None,
                 max_retries: int = 3, channel=None) -> None:
        self.replica_id = replica_id
        self.sim = sim
        self.engine = engine
        self.resources = resources
        self.certifier = certifier
        self.disk_model = disk_model or DiskModel()
        self.proxy = ReplicaProxy(replica_id, proxy_config)
        # Every cursor advance re-arms this replica's entry in the
        # certifier's lag-subscription index, which is how commit batches
        # find lagging replicas without scanning the cluster.
        self.proxy.lag_index = getattr(certifier, "subscriptions", None)
        self.max_retries = max_retries
        self.metrics: Optional[MetricsCollector] = None
        # Observability hub (tracer + telemetry registry); None keeps every
        # instrumentation site on the no-op fast path, same contract as
        # ``metrics``.  Installed by ObservabilityHub.instrument_replica.
        self.obs: Optional["ObservabilityHub"] = None
        # Hook installed by the cluster: called once per certification batch
        # that committed at least one transaction, so the writesets (already
        # in the certifier's log) are propagated to the other replicas.
        self.on_local_commit: Optional[Callable[["Replica"], None]] = None
        self._next_txn_id = 0
        self.completed = 0
        self.committed_updates = 0
        self.aborted = 0
        # Per-proxy certification batching: transactions that reached
        # CERTIFYING and are waiting for the next round trip, plus whether a
        # round trip is currently in flight.
        self._cert_queue: List[TransactionContext] = []
        self._cert_inflight = False
        # Unreliable-network mode (repro.net): the channel this replica's
        # certification RPCs, pulls and notifications travel over.  None --
        # the default -- keeps the direct, loss-free defer path.
        self.channel = channel
        # At-least-once RPC state: ids are per-proxy monotonic and *never*
        # reset (not even across crash/restore), so the certifier's dedup
        # cache can tell a fresh request from a wandering retransmission.
        self._next_request_id = 0
        self._rpc_request_id = 0
        self._rpc_attempt = 0
        self._rpc_batch: Optional[List[TransactionContext]] = None
        self._rpc_requests = None
        self.rpc_timeouts = 0
        self.rpc_retries = 0
        self.rpc_stale_responses = 0
        self.shed_unreachable = 0
        # Consistency audit (repro.net.invariants): {version: times this
        # replica was handed that committed writeset}.  None -- the default
        # -- keeps the apply path free of ledger bookkeeping; the floor
        # exempts a prefix restored out-of-band during recovery.
        self.apply_ledger: Optional[dict] = None
        self.apply_ledger_floor = 0
        # Elasticity: a replica can crash mid-run and be restored later.
        # The epoch fences continuations of transactions that were in flight
        # when the crash happened: events from an older epoch are dropped.
        self.alive = True
        self.epoch = 0
        self.crashes = 0

    # ------------------------------------------------------------------
    # Transaction submission
    # ------------------------------------------------------------------
    def submit(self, txn_type: TransactionType, submitted_at: float,
               on_done: CompletionCallback) -> None:
        """Accept a transaction from the load balancer."""
        if not self.alive:
            raise RuntimeError("replica %d is not alive" % (self.replica_id,))
        ctx = TransactionContext(self, txn_type, submitted_at, on_done)
        obs = self.obs
        if obs is not None and obs.tracer is not None:
            ctx.trace = TxnTrace(submitted_at)
        self.proxy.admission.admit(ctx)

    def _start(self, ctx: TransactionContext) -> None:
        """Run (or re-run, on retry) the execution pipeline of ``ctx``."""
        if not self.alive:
            # Crashed between admission and start (or before a retry); the
            # cluster has already failed the transaction's callback.
            return
        ctx.epoch = self.epoch
        ctx.state = TransactionContext.CPU
        ctx.txn_id = self._next_txn_id = self._next_txn_id + 1
        ctx.snapshot = self.engine.snapshots.begin(ctx.txn_id)
        trace = ctx.trace
        if trace is not None:
            # First attempt: the lap covers admission queueing.  Retries:
            # zero-length (the retry starts in the same event as the abort),
            # recorded anyway so every attempt shows in the trace.
            if trace.txn_id == 0:
                trace.txn_id = ctx.txn_id
            trace.attempts = ctx.attempt
            self._trace_lap(ctx, QUEUE)
        ctx.work, ctx.writeset = self.engine.execute(ctx.txn_type)
        cpu_time = ctx.work.cpu_seconds
        if cpu_time > 0:
            self.resources.cpu.acquire(cpu_time, ctx.after_cpu)
        else:
            ctx.after_cpu()

    # ------------------------------------------------------------------
    # Certification (batched per proxy)
    # ------------------------------------------------------------------
    def _enqueue_certification(self, ctx: TransactionContext) -> None:
        """Queue ``ctx`` for the next certification round trip.

        The proxy keeps at most one round trip to the certifier in flight;
        everything that reaches certification while one is outstanding is
        sent together when the next one departs, amortizing the round-trip
        latency and the per-transaction event-queue traffic.

        When a round trip is outstanding and the queue behind it is bounded
        (``max_queued_certifications``, the graceful-degradation knob),
        overflow is shed immediately as ``certifier-unreachable`` instead of
        piling up behind a round trip that may be retrying into a partition.
        """
        if self._cert_inflight:
            bound = self.proxy.config.max_queued_certifications
            if bound and len(self._cert_queue) >= bound:
                self._shed_certification(ctx)
                return
            self._cert_queue.append(ctx)
            return
        self._cert_queue.append(ctx)
        self._dispatch_certification()

    def _dispatch_certification(self) -> None:
        """Send one batched certification round trip (up to the batch limit)."""
        config = self.proxy.config
        limit = config.max_certification_batch
        queue = self._cert_queue
        batch = queue[:limit]
        del queue[:limit]
        self._cert_inflight = True
        epoch = self.epoch
        if self.channel is None:
            self.sim.defer(config.certification_latency_s,
                           lambda: self._complete_certification(batch, epoch))
            return
        # RPC path: build the request writesets once, at dispatch.  Retries
        # resend the very same objects, which is what lets the consistency
        # checker detect a double certification as the same writeset object
        # appearing twice in the log.
        self._next_request_id += 1
        self._rpc_request_id = self._next_request_id
        self._rpc_attempt = 0
        self._rpc_batch = batch
        self._rpc_requests = self._build_requests(batch)
        self._send_rpc_attempt(epoch)

    def _build_requests(self, batch: List[TransactionContext]) -> list:
        """The certification request list for one batch (FIFO order)."""
        replica_id = self.replica_id
        requests = []
        for ctx in batch:
            writeset = ctx.writeset
            requests.append((writeset.__class__(
                transaction_type=writeset.transaction_type,
                items=writeset.items,
                origin_replica=replica_id,
                snapshot_version=ctx.snapshot,
            ), ctx.snapshot))
        return requests

    def _complete_certification(self, batch: List[TransactionContext],
                                epoch: int) -> None:
        """The direct (loss-free) round trip returned: certify and deliver.

        The requests are certified in FIFO order, so commit versions respect
        the order in which this proxy's transactions reached certification.
        """
        if self.epoch != epoch or not self.alive:
            # The replica crashed while the round trip was in flight.  The
            # batched transactions die uncertified; their admission slots
            # went down with the crashed controller, so dropping the batch
            # leaks nothing.  crash() reset the batcher for the next epoch.
            return
        requests = self._build_requests(batch)
        results, piggyback = self.certifier.certify_batch(
            requests, since_version=self.proxy.applied_version, now=self.sim.now)
        self._deliver_certification(batch, results, piggyback)

    def _deliver_certification(self, batch: List[TransactionContext],
                               results, piggyback) -> None:
        """Apply one round trip's outcome: piggyback, commits, aborts, next batch.

        The response carries every writeset committed since the proxy's
        applied version (including this batch's own commits); applying them
        before delivering outcomes means committed transactions leave the
        replica current and aborted ones retry on a fresh snapshot.
        """
        proxy = self.proxy
        replica_id = self.replica_id
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        if tracer is not None:
            latency = proxy.config.certification_latency_s
            commits = sum(1 for result in results if result.committed)
            tracer.span("cert-roundtrip", "certification",
                        self.sim.now - latency, latency, replica_id, 0,
                        args={"batch": len(results), "commits": commits,
                              "aborts": len(results) - commits,
                              "piggybacked": len(piggyback)})
        committed_any = False
        for i, result in enumerate(results):
            if result.committed:
                # Dirty pages go to the background writer; the transaction
                # does not wait for them (durability lives in the middleware).
                write_time = self.disk_model.write_seconds(batch[i].work.write_bytes)
                if write_time > 0:
                    self.resources.disk.add_background_work(write_time)
                self.committed_updates += 1
                committed_any = True
        if committed_any and self.on_local_commit is not None:
            # One notification covers the whole batch: every commit is
            # already registered at the certifier before the hook runs.
            self.on_local_commit(self)
        if piggyback:
            # Writesets missed since our snapshot, piggybacked on the
            # certification response (Section 4.2).  This also advances the
            # applied cursor past this batch's own commits.
            self.apply_remote_writesets(piggyback)
        for i, result in enumerate(results):
            ctx = batch[i]
            trace = ctx.trace
            if trace is not None:
                self._trace_lap(ctx, CERTIFY)
            if result.committed:
                self._finish(ctx, committed=True)
            else:
                self.aborted += 1
                retrying = ctx.attempt < self.max_retries
                reason = "certification-conflict" if retrying else "retry-exhausted"
                if self.metrics is not None:
                    self.metrics.record_abort(reason)
                if trace is not None:
                    tracer.instant("abort", "txn", self.sim.now, replica_id,
                                   trace.txn_id,
                                   args={"reason": reason,
                                         "attempt": ctx.attempt})
                self.engine.snapshots.finish(ctx.txn_id)
                if retrying:
                    # Retry immediately on the same replica, keeping the
                    # admission slot; the piggybacked writesets were applied
                    # above, so the retry begins at a fresh snapshot.
                    ctx.attempt += 1
                    self._start(ctx)
                else:
                    self._finish(ctx, committed=False, already_closed=True)
        if self._cert_queue:
            # More transactions reached certification while this round trip
            # was in flight: they depart together as the next batch.
            self._dispatch_certification()
        else:
            self._cert_inflight = False

    # ------------------------------------------------------------------
    # At-least-once certification RPC (channel mode only)
    # ------------------------------------------------------------------
    def _send_rpc_attempt(self, epoch: int) -> None:
        """Transmit the current round trip (first send or a retry).

        Both legs travel over the channel: the request leg runs the
        certifier-side handler (which answers duplicates from its dedup
        cache), the response leg delivers the decision back here.  A timeout
        armed alongside the send drives the retransmission; it is
        invalidated by whichever of {response, newer attempt, crash} happens
        first.
        """
        self._rpc_attempt += 1
        attempt = self._rpc_attempt
        request_id = self._rpc_request_id
        requests = self._rpc_requests
        config = self.proxy.config
        one_way = config.certification_latency_s / 2.0
        channel = self.channel
        certifier = self.certifier

        def at_certifier() -> None:
            results, piggyback = certifier.certify_rpc(
                self.replica_id, request_id, requests,
                since_version=self.proxy.applied_version, now=self.sim.now)
            if results is None:
                # Stale retransmission from a round trip this proxy has
                # already resolved; the certifier refused to re-certify it.
                return
            channel.deliver(one_way, lambda: self._rpc_response(
                request_id, results, piggyback, epoch))

        self.sim.defer(config.rpc_timeout_s,
                       lambda: self._rpc_timeout(request_id, attempt, epoch))
        channel.deliver(one_way, at_certifier)

    def _rpc_response(self, request_id: int, results, piggyback,
                      epoch: int) -> None:
        """A certification response arrived (possibly late or duplicated)."""
        if self.epoch != epoch or not self.alive:
            return
        if not self._cert_inflight or request_id != self._rpc_request_id:
            # Response to an abandoned round trip, or a duplicate of one
            # already delivered: the decision was (or will be) honoured by
            # the copy that won the race.
            self.rpc_stale_responses += 1
            obs = self.obs
            if obs is not None:
                obs.rpc_event(self.replica_id, "stale-response", self.sim.now,
                              {"request_id": request_id})
            return
        batch = self._rpc_batch
        self._rpc_batch = None
        self._rpc_requests = None
        self._deliver_certification(batch, results, piggyback)

    def _rpc_timeout(self, request_id: int, attempt: int, epoch: int) -> None:
        """No response within ``rpc_timeout_s``: back off and retransmit."""
        if self.epoch != epoch or not self.alive:
            return
        if not self._cert_inflight or request_id != self._rpc_request_id:
            return      # the response made it; this timer is stale
        if attempt != self._rpc_attempt:
            return      # a newer attempt is out with its own timer
        self.rpc_timeouts += 1
        obs = self.obs
        if obs is not None:
            obs.rpc_event(self.replica_id, "timeout", self.sim.now,
                          {"request_id": request_id, "attempt": attempt})
        config = self.proxy.config
        if config.rpc_max_attempts and attempt >= config.rpc_max_attempts:
            # Certifier declared unreachable: shed the batch so the
            # admission slots it holds go back to (read-only) transactions
            # that can still make progress locally.
            self._abandon_certification()
            return
        self.rpc_retries += 1
        self.sim.defer(self._backoff_delay(attempt, request_id),
                       lambda: self._rpc_retry(request_id, attempt, epoch))

    def _rpc_retry(self, request_id: int, attempt: int, epoch: int) -> None:
        """The backoff elapsed: retransmit unless the round trip resolved."""
        if self.epoch != epoch or not self.alive:
            return
        if not self._cert_inflight or request_id != self._rpc_request_id:
            return
        if attempt != self._rpc_attempt:
            return
        obs = self.obs
        if obs is not None:
            obs.rpc_event(self.replica_id, "retry", self.sim.now,
                          {"request_id": request_id, "attempt": attempt + 1})
        self._send_rpc_attempt(epoch)

    def _backoff_delay(self, attempt: int, request_id: int) -> float:
        """Capped exponential backoff with deterministic jitter.

        The jitter decorrelates the proxies' retry storms after a shared
        partition heals without consuming any RNG stream (seeded outputs of
        fault-free channel runs stay reproducible): a hash of (request id,
        replica id, attempt) spreads delays over [delay, 1.25 * delay).
        """
        config = self.proxy.config
        delay = config.rpc_backoff_base_s * (2 ** (attempt - 1))
        cap = config.rpc_backoff_cap_s
        if delay > cap:
            delay = cap
        mix = (request_id * 2654435761) ^ (self.replica_id * 40503) ^ attempt
        return delay * (1.0 + (mix % 1024) / 4096.0)

    def _abandon_certification(self) -> None:
        """Shed the in-flight batch: the certifier is unreachable.

        Its certification state is discarded *before* the contexts finish so
        a freed admission slot cannot race with it; if more updates queued
        behind the abandoned round trip, the next batch departs immediately
        (its own retries will probe the link).
        """
        batch = self._rpc_batch
        self._rpc_batch = None
        self._rpc_requests = None
        for ctx in batch:
            self._shed_certification(ctx)
        if self._cert_queue:
            self._dispatch_certification()
        else:
            self._cert_inflight = False

    def _shed_certification(self, ctx: TransactionContext) -> None:
        """Fail one update transaction with ``certifier-unreachable``.

        Not a certification abort (the certifier never saw it), so the
        golden-pinned ``aborts`` counter is untouched; the failure lands in
        the abort-reason taxonomy and the client re-issues.  Read-only
        transactions never pass through here -- they keep committing from
        the local snapshot while the link is down.
        """
        self.shed_unreachable += 1
        if self.metrics is not None:
            self.metrics.record_failure("certifier-unreachable")
        obs = self.obs
        if obs is not None:
            obs.rpc_event(self.replica_id, "shed", self.sim.now,
                          {"txn_id": ctx.txn_id})
            if ctx.trace is not None:
                obs.tracer.instant("abort", "txn", self.sim.now,
                                   self.replica_id, ctx.trace.txn_id,
                                   args={"reason": "certifier-unreachable",
                                         "attempt": ctx.attempt})
        self.engine.snapshots.finish(ctx.txn_id)
        self._finish(ctx, committed=False, already_closed=True)

    def _finish(self, ctx: TransactionContext, committed: bool,
                already_closed: bool = False) -> None:
        ctx.state = TransactionContext.DONE
        if ctx.trace is not None:
            self._trace_finish(ctx, committed)
        if not already_closed:
            self.engine.snapshots.finish(ctx.txn_id)
        self.completed += 1
        if self.metrics is not None and committed:
            now = self.sim.now
            work = ctx.work
            self.metrics.record_completion(
                now, ctx.txn_type.name, self.replica_id, now - ctx.submitted_at,
                ctx.txn_type.is_update, work.read_bytes,
                self.disk_model.effective_write_bytes(work.write_bytes),
            )
        self.proxy.admission.release()
        ctx.on_done(committed)

    # ------------------------------------------------------------------
    # Tracing (no-ops unless an ObservabilityHub armed ``ctx.trace``)
    # ------------------------------------------------------------------
    def _trace_lap(self, ctx: TransactionContext, stage: int) -> None:
        """Close the trace's current stage at ``now`` and emit its span.

        Unguarded by design: every call site checks ctx.trace/self.obs
        before entering, keeping this helper branch-free on the traced
        path -- which O2 proves interprocedurally.
        """
        trace = ctx.trace
        now = self.sim.now
        start = trace.lap(stage, now)
        self.obs.tracer.span(STAGE_NAMES[stage], "stage",
                             start, now - start,
                             self.replica_id, trace.txn_id,
                             args={"attempt": ctx.attempt})

    def _trace_finish(self, ctx: TransactionContext, committed: bool) -> None:
        """Record the finished transaction's histograms and summary span.

        Only transactions that reach ``_finish`` are recorded (crash- or
        drain-abandoned ones never do), so the per-stage histograms
        sum-reconcile with the end-to-end latency histogram: the stage laps
        telescope from ``submitted_at`` to the finish instant.
        """
        trace = ctx.trace
        now = self.sim.now
        total = now - ctx.submitted_at
        tracer = self.obs.tracer
        tracer.stages.record_txn(trace.stage_seconds, total)
        tracer.span("txn", "txn", ctx.submitted_at, total, self.replica_id,
                    trace.txn_id,
                    args={"type": ctx.txn_type.name, "committed": committed,
                          "attempts": ctx.attempt})

    # ------------------------------------------------------------------
    # Crash / restore (elasticity)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail the replica: in-flight transactions are abandoned.

        The epoch bump fences every continuation already in the event queue,
        including the in-flight certification round trip; the admission
        controller is rebuilt so queued-but-unstarted work is discarded, and
        the certification batcher is reset (its queued contexts die with
        their admission slots).  Durable state (the applied-version cursor)
        survives, as it would on disk; the page cache is cleared by
        recovery.  Idempotent while down.
        """
        if not self.alive:
            return
        self.alive = False
        self.epoch += 1
        self.crashes += 1
        self.proxy.admission = AdmissionController(self.proxy.config.max_concurrency)
        self._cert_queue = []
        self._cert_inflight = False
        # The in-flight RPC batch dies with its admission slots; its timers
        # and late responses are fenced by the epoch.  Request ids stay
        # monotonic so post-restore round trips cannot look stale.
        self._rpc_batch = None
        self._rpc_requests = None
        self.engine.snapshots.abort_open()

    # ------------------------------------------------------------------
    # Update propagation
    # ------------------------------------------------------------------
    def apply_remote_writesets(self, entries: Sequence[CertifiedWriteSet]) -> None:
        """Apply a batch of committed writesets from the certifier.

        Writesets originating at this replica are skipped (their effects are
        already local); the rest are applied subject to the proxy's update
        filter (``proxy.filter_tables``, the single source of filtering
        truth, evaluated per item by the engine).  The buffer-pool effects,
        CPU time, disk service time and background-I/O accounting are all
        aggregated over the batch (per relation, by
        ``engine.apply_writesets_fast``) and charged once -- a pull that
        returns dozens of writesets used to pay per-entry resource
        bookkeeping, which showed up as a hot path on paper-scale runs.
        """
        proxy = self.proxy
        engine = self.engine
        replica_id = self.replica_id
        ledger = self.apply_ledger
        to_apply = None
        applied_version = proxy.applied_version
        for entry in entries:
            version = entry.version
            if version <= applied_version:
                continue
            writeset = entry.writeset
            if writeset.origin_replica != replica_id:
                if ledger is not None:
                    # Consistency audit: count the delivery before filtering
                    # (the checker verifies exactly-once *delivery*; what
                    # the filter then drops is policy, not loss).
                    ledger[version] = ledger.get(version, 0) + 1
                if to_apply is None:
                    to_apply = [writeset]
                else:
                    to_apply.append(writeset)
            applied_version = version
        if to_apply is not None:
            disk_model = self.disk_model
            cpu_seconds, read_bytes, write_bytes, applications, filtered = \
                engine.apply_writesets_fast(to_apply, proxy.filter_tables)
            if applications:
                proxy.writesets_applied += applications
            if filtered:
                proxy.writesets_filtered += filtered
            io_seconds = disk_model.read_seconds(read_bytes, 0.0) \
                + disk_model.write_seconds(write_bytes)
            if cpu_seconds > 0:
                self.resources.cpu.add_background_work(cpu_seconds)
            if io_seconds > 0:
                self.resources.disk.add_background_work(io_seconds)
            if self.metrics is not None and (read_bytes > 0 or write_bytes > 0):
                self.metrics.record_background_io(
                    time=self.sim.now,
                    replica_id=replica_id,
                    read_bytes=read_bytes,
                    write_bytes=disk_model.effective_write_bytes(write_bytes),
                )
        if applied_version > proxy.applied_version:
            # Cursors are committed once per batch; versions inside a batch
            # ascend, so the final advance is equivalent to per-entry ones.
            proxy.advance(applied_version)
            engine.snapshots.advance(applied_version)

    def pull_updates(self, trigger: str = "periodic") -> int:
        """Fetch and apply all writesets committed since our applied version.

        Returns the number of writesets fetched.  Called periodically (the
        prototype pulls every 500 ms when idle) and by the certifier's lag
        notifications (``trigger="notification"``, used by the telemetry
        pull-source breakdown).  A crashed or retired replica pulls nothing.
        """
        if not self.alive:
            return 0
        channel = self.channel
        if channel is not None and not channel.pull_allowed():
            # Partitioned or the exchange was lost; the periodic pull loop
            # is the retry, so nothing further to arrange.
            return 0
        entries = self.certifier.writesets_since(self.proxy.applied_version)
        if entries:
            self.apply_remote_writesets(entries)
        obs = self.obs
        if obs is not None:
            obs.record_pull(self.replica_id, trigger, len(entries), self.sim.now)
        return len(entries)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lag(self) -> int:
        return self.certifier.current_version - self.proxy.applied_version

    def describe(self) -> str:
        return "replica %d: completed=%d updates=%d aborted=%d lag=%d" % (
            self.replica_id, self.completed, self.committed_updates, self.aborted, self.lag
        )
