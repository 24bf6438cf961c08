"""A/B mode: this checkout's ``src`` against the ``src`` of a git ref.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py --ab HEAD~1 [--workload W] \\
        [--seed N] [--seconds S]

The ref's ``src`` tree is extracted with ``git archive`` under
``benchmarks/ledger/.runs/ab/``.  Both sides run this same benchmark code;
only the measured ``src`` differs.  For each workload the script runs
:data:`ROUNDS` pairs of end-to-end runs, alternating which side goes
first, then one traced run per side.  It prints each side's median and
quartiles per metric, and the operations each side failed, with a verdict:

* ``gain`` -- the change won at least nine tenths of the pairs, the medians
  differ by more than the base's own spread (quartile distance), and the
  change failed no more operations than the base;
* ``regression`` -- the change's median is worse than the base's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the base's own spread is wider than the bound, and not
  every run of the change reads better than every run of the base;
* ``within bound`` -- none of the above.

A run that exits without a result counts as one failed operation of its
side, and its pair is left out of the verdicts.

Per-layer metrics come from one traced run per side.  Those that repeat
exactly (every simulated outcome and count) get a count verdict:
``identical`` or the exact change; those measured on the host are shown
but claim nothing.
A gain claim must also hold at the held-out seed (``--seed 4099``).
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
from typing import Dict, List, Optional, Tuple

from benchmarks.ledger.run import ROOT, STATE_DIR, provenance
from benchmarks.ledger.workloads import WORKLOADS

#: Alternating pairs of end-to-end runs per workload.
ROUNDS = 10
#: Units of per-layer values that are counted or simulated, so repeat
#: exactly for a seed.  Host-measured values (times, memory, and the
#: ``bench.*`` figures about the tracing itself) do not.
EXACT_UNITS = ("count", "ratio", "KB", "sim_txn/s", "sim_s")


def is_exact(metric: Dict) -> bool:
    return (metric["unit"] in EXACT_UNITS
            and not metric["name"].startswith("bench."))


def extract_ref(ref: str) -> Tuple[str, str]:
    """Extract ``ref``'s ``src`` tree; returns its commit and path."""
    sha = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    target = os.path.join(STATE_DIR, "ab", sha)
    src = os.path.join(target, "src")
    if not os.path.isdir(src):
        archive = subprocess.run(["git", "archive", "--format=tar", sha,
                                  "src"], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        os.makedirs(target, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(target)
    return sha, src


def _bench(workload: str, seed: int, seconds: float, trace: int,
           src: str) -> Optional[Dict]:
    """One benchmark run; None if it exited without a result."""
    cmd = [sys.executable, os.path.join(ROOT, "benchmarks", "ledger",
                                        "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--src", src]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("  run failed (%s, trace %d, %s): %s"
              % (workload, trace, src, proc.stderr.strip()[-300:]))
        return None
    return json.loads(lines[-1])


def _failed(result: Optional[Dict]) -> int:
    return 1 if result is None else result["failed"]


def _spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def timing_verdict(base: List[float], head: List[float], better: str,
                   bound: float, base_failed: int, head_failed: int) -> str:
    """The verdict for one metric over paired runs (see module docstring)."""
    if not base:
        return "no complete pair"
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    # Positive when the change reads better than the base.
    improvement = sign * (statistics.median(head) - base_median)
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    if (wins >= 0.9 * len(base) and improvement > _spread(base)
            and head_failed <= base_failed):
        return "gain"
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if _spread(base) > bound * abs(base_median) and not all_better:
        return "unresolved"
    if -improvement > bound * abs(base_median):
        return "regression"
    return "within bound"


def count_verdict(base: float, head: float) -> str:
    if base == head:
        return "identical"
    if base:
        return "changed %.6g -> %.6g (%+.2f%%)" % (
            base, head, 100.0 * (head - base) / base)
    return "changed %.6g -> %.6g" % (base, head)


def _quartile_line(values: List[float]) -> str:
    if not values:
        return "-"
    if len(values) < 2:
        return "%.6g" % values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return "%.6g [%.6g, %.6g]" % (statistics.median(values), q1, q3)


def run_ab(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    base_sha, base_src = extract_ref(args.ab)
    sides = {"base": base_src, "head": os.path.abspath(args.src)}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    report: Dict = {"ref": args.ab, "seed": args.seed, "rounds": ROUNDS,
                    "provenance": {"base": provenance(base_src, base_sha),
                                   "head": provenance(sides["head"])},
                    "workloads": {}}
    for workload in workloads:
        runs: Dict[str, List[Optional[Dict]]] = {"base": [], "head": []}
        for round_no in range(ROUNDS):
            order = ("base", "head") if round_no % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(_bench(workload, args.seed, args.seconds,
                                         0, sides[side]))
        traced = {side: _bench(workload, args.seed, args.seconds, 1, src)
                  for side, src in sides.items()}

        failed = {side: sum(_failed(r) for r in runs[side])
                  for side in runs}
        pairs = [(b, h) for b, h in zip(runs["base"], runs["head"])
                 if b is not None and h is not None]
        rows: Dict = {}
        print("\n%s  (seed %d, %d pairs; base = %s)"
              % (workload, args.seed, ROUNDS, args.ab))
        print("  failed operations in end-to-end runs: base %d, head %d"
              % (failed["base"], failed["head"]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [b["metrics"][name]["value"] for b, _ in pairs]
            head = [h["metrics"][name]["value"] for _, h in pairs]
            verdict = timing_verdict(base, head, metric["better"],
                                     metric["bound"], failed["base"],
                                     failed["head"])
            rows[name] = {"base": base, "head": head, "verdict": verdict}
            print("  %-32s base %-34s head %-34s %s"
                  % (name, _quartile_line(base), _quartile_line(head),
                     verdict))
        if traced["base"] is not None and traced["head"] is not None:
            for metric in spec["per_layer"]:
                name = metric["name"]
                base_value = traced["base"]["metrics"][name]["value"]
                head_value = traced["head"]["metrics"][name]["value"]
                verdict = (count_verdict(base_value, head_value)
                           if is_exact(metric)
                           else "one traced pass per side, not a claim")
                rows[name] = {"base": base_value, "head": head_value,
                              "verdict": verdict}
                print("  %-40s base %-14.6g head %-14.6g %s"
                      % (name, base_value, head_value, verdict))
        results = runs["base"] + runs["head"] + list(traced.values())
        correct = all(r is not None and r["correct"] for r in results)
        print("  all runs correct: %s" % correct)
        report["workloads"][workload] = {"correct": correct, "failed": failed,
                                         "metrics": rows}

    path = os.path.join(STATE_DIR, "ab", "last.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print("\nfull report: %s" % os.path.relpath(path, ROOT))
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1
