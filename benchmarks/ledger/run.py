"""The repository benchmark: one workload, its end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py --workload fig6-malb --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics.  It starts nine fresh
processes that each build the workload and run its first simulated event
(``setup_s`` is the median of their CPU time since process start, scaled
to nominal host speed), then one process that repeats the whole workload
untraced until ``--seconds`` of CPU time are spent, always at least once.
The host cost per simulated transaction is the median over those
repetitions, in units of a reference loop timed while they run (see
``speed.py``: raw CPU time on a shared machine drifts by up to 2x).  The
simulated outputs are identical in every repetition and are checked to be;
they, and the peak RSS, are reported with ``--trace 1``.

``--trace 1`` reports the per-layer metrics.  It runs the workload once
untraced, then twice traced in two processes side by side, and checks that
the three runs agree on every simulated output and that the two traced
passes agree on every span count.

Every run checks its outputs (see ``workloads.check_outputs``), and checks
them against every earlier run of the same workload, seed, ``src`` tree and
benchmark version in this checkout (recorded under
``benchmarks/ledger/.runs/``).  A
repetition that fails a check counts as a failed operation.  The last line
of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--ab REF`` compares the working tree's ``src`` with git ref ``REF``
instead; see ``ab.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
STATE_DIR = os.path.join(ROOT, "benchmarks", "ledger", ".runs")

if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from benchmarks.ledger.speed import NOMINAL_REF_S  # noqa: E402
from benchmarks.ledger.workloads import (  # noqa: E402
    DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS)

#: Names, units, directions and bounds of every metric.
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Set-up processes per run.  One set-up, scaled by a reference measured
#: right after it, spreads by a fifth between fresh processes on a shared
#: host; the median of nine is what holds still from run to run.
SETUP_PROCESSES = 9
#: Every process this benchmark starts must end inside this budget.
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def start_child(role: str, workload: str, seed: int, src: str,
                seconds: float = 0.0) -> subprocess.Popen:
    """Start one ``worker.py`` process; :func:`finish_child` collects it."""
    cmd = [sys.executable, "-m", "benchmarks.ledger.worker", role,
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--src", src]
    # A fixed hash seed keeps dict and set layouts, and so the host cost,
    # the same from process to process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish_child(proc: subprocess.Popen, deadline: float) -> Dict:
    """Wait for a worker (killing it at the deadline); returns its JSON."""
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed("worker timed out: %s" % " ".join(proc.args[3:5])
                          ) from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-3:]
        raise ChildFailed("worker exited %d: %s"
                          % (proc.returncode, " | ".join(tail)))
    return json.loads(lines[-1])


def run_child(role: str, workload: str, seed: int, src: str,
              deadline: float, seconds: float = 0.0) -> Dict:
    return finish_child(start_child(role, workload, seed, src, seconds),
                        deadline)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()
                          ).hexdigest()[:16]


def tree_digest(top: str) -> str:
    """Content hash of a source tree, skipping caches and hidden entries."""
    hasher = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__" and not d.startswith("."))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            hasher.update(os.path.relpath(path, top).encode())
            with open(path, "rb") as handle:
                hasher.update(handle.read())
    return hasher.hexdigest()[:16]


def ledger_key(workload: str, seed: int, src: str) -> str:
    """Recorded outputs belong to one workload, seed, program and version
    of this benchmark."""
    return "%s seed=%d src=%s bench=%s" % (
        workload, seed, tree_digest(src),
        tree_digest(os.path.dirname(os.path.abspath(__file__))))


def provenance(src: str, sha: Optional[str] = None) -> Dict:
    """Where and on what a result was measured.  ``sha`` defaults to the
    checkout's HEAD, or "unknown" outside a git repository."""
    if sha is None:
        sha = "unknown"
        if os.path.isdir(os.path.join(ROOT, ".git")):
            try:
                sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                     capture_output=True, text=True,
                                     check=True).stdout.strip()
            except (OSError, subprocess.CalledProcessError):
                pass
    return {
        "git_sha": sha,
        "src_digest": tree_digest(src),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def count_fields(spans: Dict[str, List[int]]) -> Dict[str, List[int]]:
    """The exact part of span statistics: calls, entries, child calls."""
    return {key: [stat[0], stat[1], stat[4]] for key, stat in spans.items()}


class Ledger:
    """What earlier runs in this checkout produced, per workload, seed and
    ``src`` content; a later run must reproduce it."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.entries: Dict[str, str] = {}
        if os.path.exists(path):
            with open(path) as handle:
                self.entries = json.load(handle)

    def check(self, key: str, value: str) -> Optional[str]:
        """Record ``value`` under ``key``, or report that it differs."""
        known = self.entries.get(key)
        if known is None:
            self.entries[key] = value
            return None
        if known != value:
            return "%s: %s, an earlier run gave %s" % (key, value, known)
        return None

    def save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        temp = self.path + ".tmp"
        with open(temp, "w") as handle:
            json.dump(self.entries, handle, indent=1, sort_keys=True)
        os.replace(temp, self.path)


def measure_end_to_end(workload: str, seed: int, seconds: float, src: str,
                       ledger: Ledger, deadline: float
                       ) -> Tuple[Dict[str, float], int, int, List[str], Dict]:
    """``--trace 0``: returns (metrics, attempted, failed, problems, detail)."""
    problems: List[str] = []
    attempted = failed = 0
    setups = []
    for _ in range(SETUP_PROCESSES):
        attempted += 1
        try:
            result = run_child("setup", workload, seed, src, deadline)
        except ChildFailed as exc:
            failed += 1
            problems.append(str(exc))
            continue
        if result["events"] != 1:
            failed += 1
            problems.append("setup ran %d events, not 1" % result["events"])
        setups.append(result["setup_cpu_s"] * NOMINAL_REF_S / result["ref_s"])

    timed = run_child("timed", workload, seed, src, deadline, seconds)
    reps = timed["reps"]
    first = reps[0]["outputs"]
    mismatch = ledger.check(ledger_key(workload, seed, src) + " outputs",
                            digest(first))
    for i, rep in enumerate(reps):
        attempted += 1
        bad = rep["problems"] + ([mismatch] if mismatch else [])
        if rep["outputs"] != first:
            bad.append("simulated outputs differ from repetition 0")
        if bad:
            failed += 1
            problems.extend("repetition %d: %s" % (i, p) for p in bad)
    if not setups:
        raise ChildFailed("no setup process succeeded")

    costs = [r["cpu_s"] / r["ref_s"] for r in reps]
    metrics = {
        "setup_s": statistics.median(setups),
        "txn_cost_mref": statistics.median(
            [c / r["outputs"]["attempted"] * 1e3 for c, r in zip(costs, reps)]),
    }
    detail = {
        "setup_nominal_s": setups,
        "peak_rss_mb": timed["peak_rss_mb"],
        "rep_cpu_s": [r["cpu_s"] for r in reps],
        "rep_wall_s": [r["wall_s"] for r in reps],
        "rep_ref_ms": [r["ref_s"] * 1e3 for r in reps],
        "rep_cost_ref": costs,
        "sim": {k: first[k] for k in (
            "events", "attempted", "committed", "failed", "completed",
            "aborts", "tps", "resp_samples", "failure_reasons")},
    }
    return metrics, attempted, failed, problems, detail


def _per_txn(value: float, txns: int) -> float:
    return value / txns if txns else 0.0


def wrapper_seconds(counts: Dict[str, List[int]], calibration: Dict) -> float:
    """What the span wrappers themselves cost over a traced pass."""
    calls = sum(c[0] for c in counts.values())
    return calls * calibration["per_call_ns"] / 1e9


def per_layer_metrics(out: Dict, spans: Dict[str, float],
                      counts: Dict[str, List[int]], calibration: Dict,
                      traced: Dict, timed: Dict) -> Dict[str, float]:
    """Per-layer metrics from one workload's traced passes.

    ``spans`` maps a span key to its calibrated self time in ns; ``counts``
    to its exact [calls, entries, child calls].  ``traced`` and ``timed``
    hold ``cpu_s`` and ``ref_s`` of a traced and an untraced run; overheads
    compare their costs in reference loops, since they ran at different
    moments.

    The simulated outcomes (``sim_*``) are exact for a seed but move by up
    to a fifth from seed to seed on ordering-uf and chaos-lc-obs, so they
    are compared here, exactly, rather than bounded end to end; so is the
    peak RSS, which follows ordering-uf's simulated throughput.

    What each should move: every self time moves ``txn_cost_mref``;
    ``core.*`` on fig6-malb and ordering-uf only (chaos-lc-obs bypasses
    MALB); ``replica.apply``, ``engine.apply`` and ``certifier.*`` most on
    ordering-uf; ``propagation.filtered_frac`` moves ``sim_tps`` on
    ordering-uf (update filtering); ``buffer_pool.hit_ratio`` moves
    ``sim_tps`` and ``sim_resp_mean_s`` on fig6-malb (memory-aware
    grouping); ``net.*`` and ``obs.*`` only chaos-lc-obs; ``sim.*_util``
    moves ``sim_resp_mean_s`` before ``sim_tps``.
    """
    txns = out["attempted"]

    def self_us(*keys: str) -> float:
        return sum(spans.get(k, 0.0) for k in keys) / 1e3

    def calls(*keys: str) -> int:
        return sum(counts.get(k, [0, 0, 0])[0] for k in keys)

    def entries(prefix: str) -> int:
        return sum(c[1] for k, c in counts.items() if k.startswith(prefix))

    def keys_of(prefix: str) -> List[str]:
        return [k for k in counts if k.startswith(prefix)]

    handled = out["writesets_applied"] + out["writesets_filtered"]
    pool = keys_of("buffer_pool.")
    certifier = keys_of("certifier.")
    accounted_s = (sum(spans.values()) / 1e9
                   + wrapper_seconds(counts, calibration))
    timed_cost = timed["cpu_s"] / timed["ref_s"]
    traced_cost = traced["cpu_s"] / traced["ref_s"]
    dispatches = calls("core.dispatch")
    periodic = calls("core.periodic")
    execute = calls("engine.execute")
    return {
        "sim.self_us_per_txn": _per_txn(self_us("sim.loop"), txns),
        "sim.events_per_txn": _per_txn(out["events"], txns),
        "sim.cpu_util": out["cpu_util"],
        "sim.disk_util": out["disk_util"],
        "workloads.calls_per_txn": _per_txn(calls("workloads.next_type"),
                                            txns),
        "workloads.self_us_per_txn":
            _per_txn(self_us("workloads.next_type"), txns),
        "core.dispatch.calls_per_txn": _per_txn(dispatches, txns),
        "core.dispatch.self_us_per_call":
            _per_txn(self_us("core.dispatch"), dispatches),
        "core.periodic.calls": entries("core.periodic"),
        "core.periodic.self_ms_per_call":
            _per_txn(self_us("core.periodic") / 1e3, periodic),
        "core.reallocations": out["reallocations"],
        "replica.submit.self_us_per_txn":
            _per_txn(self_us("replica.submit"), txns),
        "replica.pull.calls_per_txn": _per_txn(calls("replica.pull"), txns),
        "replica.apply.self_us_per_writeset":
            _per_txn(self_us("replica.apply"), handled),
        "propagation.applied_per_commit":
            _per_txn(out["writesets_applied"], out["cert_commits"]),
        "propagation.filtered_frac":
            _per_txn(out["writesets_filtered"], handled),
        "certifier.calls_per_txn": _per_txn(entries("certifier."), txns),
        "certifier.self_us_per_request":
            _per_txn(self_us(*certifier), out["cert_requests"]),
        "certifier.requests_per_batch":
            _per_txn(out["cert_batched_requests"], out["cert_batches"]),
        "certifier.abort_frac":
            _per_txn(out["cert_aborts"], out["cert_requests"]),
        "certifier.notifications_per_commit":
            _per_txn(out["cert_notifications"], out["cert_commits"]),
        "engine.execute.self_us_per_call":
            _per_txn(self_us("engine.execute"), execute),
        "engine.apply.self_us_per_writeset":
            _per_txn(self_us("engine.apply"), handled),
        "buffer_pool.calls_per_txn": _per_txn(calls(*pool), txns),
        "buffer_pool.self_us_per_call":
            _per_txn(self_us(*pool), calls(*pool)),
        "buffer_pool.hit_ratio": out["pool_hit_ratio"],
        "buffer_pool.evicted_kb_per_txn":
            _per_txn(out["pool_evicted_bytes"] / 1024.0, txns),
        "storage.read_kb_per_txn": out["read_kb_per_txn"],
        "storage.write_kb_per_txn": out["write_kb_per_txn"],
        "net.self_us_per_txn":
            _per_txn(self_us("net.deliver", "net.pull_allowed"), txns),
        "net.audit_self_s": self_us("net.audit") / 1e6,
        "net.rpc_retries_per_txn": _per_txn(out["rpc_retries"], txns),
        "net.dedup_hits": out["cert_dedup_hits"],
        "net.shed_frac": _per_txn(out["shed_unreachable"], txns),
        "obs.self_us_per_txn": _per_txn(self_us(*keys_of("obs.")), txns),
        "obs.trace_events_per_txn": _per_txn(out["trace_events"], txns),
        "metrics.self_us_per_txn":
            _per_txn(self_us("metrics.record_completion"), txns),
        "sim_failed_frac": _per_txn(out["failed"], txns),
        "sim_resp_p50_s": out["resp_p50_s"],
        "sim_resp_p99_s": out["resp_p99_s"],
        "sim_tps": out["tps"],
        "sim_resp_mean_s": out["resp_mean_s"],
        "run_cpu_s": timed["cpu_s"],
        "cpu_us_per_txn": _per_txn(timed["cpu_s"] * 1e6, txns),
        "bench.trace_overhead_frac": traced_cost / timed_cost - 1.0,
        "bench.accounted_frac": accounted_s / traced["cpu_s"],
    }


def measure_per_layer(workload: str, seed: int, src: str, ledger: Ledger,
                      deadline: float):
    """``--trace 1``: returns (metrics, attempted, failed, problems, detail)."""
    problems: List[str] = []
    timed = run_child("timed", workload, seed, src, deadline)
    base = timed["reps"][0]
    # The two traced passes run side by side: their counts must agree
    # exactly, and running them one after the other would take the
    # paper-scale workload past the run's time budget.
    traced = [start_child("traced", workload, seed, src) for _ in range(2)]
    try:
        passes = [finish_child(proc, deadline) for proc in traced]
    finally:
        for proc in traced:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    runs = [base] + passes
    attempted = len(runs)
    failed = 0
    counts = count_fields(passes[0]["spans"])
    key = ledger_key(workload, seed, src)
    mismatches = [m for m in (
        ledger.check(key + " outputs", digest(base["outputs"])),
        ledger.check(key + " span counts", digest(counts))) if m]
    for i, run in enumerate(runs):
        bad = list(run["problems"]) + mismatches
        if run["outputs"] != base["outputs"]:
            bad.append("simulated outputs differ from the untraced run")
        if i > 0 and count_fields(run["spans"]) != counts:
            bad.append("span counts differ between the traced passes")
        if bad:
            failed += 1
            problems.extend("run %d: %s" % (i, p) for p in bad)

    from benchmarks.ledger.probes import calibrated_self_ns
    spans = {k: statistics.mean(calibrated_self_ns(p["spans"][k],
                                                   p["calibration"])
                                for p in passes)
             for k in counts}
    calibration = {k: statistics.mean(p["calibration"][k] for p in passes)
                   for k in passes[0]["calibration"]}
    traced = {k: statistics.mean(p[k] for p in passes)
              for k in ("cpu_s", "ref_s")}
    metrics = per_layer_metrics(base["outputs"], spans, counts, calibration,
                                traced, base)
    metrics["peak_rss_mb"] = timed["peak_rss_mb"]
    timed_cost = base["cpu_s"] / base["ref_s"]
    residual_cost = ((traced["cpu_s"] - wrapper_seconds(counts, calibration))
                     / traced["ref_s"])
    detail = {"timed_cpu_s": base["cpu_s"],
              "traced_cpu_s": [p["cpu_s"] for p in passes],
              "run_cost_ref": timed_cost,
              "calibrated_residual_frac": residual_cost / timed_cost - 1.0,
              "resp_samples": base["outputs"]["resp_samples"],
              "calibration": calibration,
              "span_counts": counts,
              "span_self_ms": {k: v / 1e6 for k, v in spans.items()}}
    return metrics, attempted, failed, problems, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/ledger/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run (required without --ab)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %d; held-out seed %d)"
                             % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="CPU seconds of repetitions to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="src tree to measure (default: this checkout's)")
    parser.add_argument("--ab", metavar="REF",
                        help="compare this checkout's src with git ref REF")
    args = parser.parse_args(argv)

    if args.ab:
        from benchmarks.ledger.ab import run_ab
        return run_ab(args)
    if args.workload is None:
        parser.error("--workload is required")
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("no repro package under %s" % src, file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    with open(SPEC_PATH) as handle:
        declared = json.load(handle)["per_layer" if args.trace
                                     else "end_to_end"]
    info = provenance(src)
    ledger = Ledger(os.path.join(STATE_DIR, "expected.json"))
    try:
        if args.trace:
            values, attempted, failed, problems, detail = measure_per_layer(
                args.workload, args.seed, src, ledger, deadline)
        else:
            values, attempted, failed, problems, detail = measure_end_to_end(
                args.workload, args.seed, args.seconds, src, ledger, deadline)
    except ChildFailed as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    ledger.save()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "provenance": info,
                      "detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
