"""One measuring process of the benchmark.  ``run.py`` starts it; it prints
one JSON object as its last line of output.

Roles::

    setup   run the workload up to and including its first simulated
            event and report the process's CPU time since it started,
            then the host speed reference measured right after
    timed   run the workload once up to its first event, untimed (imports
            and first-use costs), then repeat the whole workload, untraced,
            until --seconds of
            CPU time are spent (at least once); report each repetition's
            CPU time, the host speed reference during it (see speed.py),
            its simulated outputs, and the process's peak RSS
    traced  run the workload up to its first event as ``timed`` does,
            then wrap every layer's entry points, calibrate the wrappers,
            run the workload once with the speed reference sampling (kept out
            of span self times) and report span statistics

``--src`` names the ``src`` directory whose ``repro`` package is measured,
so an A/B comparison runs this same code against two trees.

Usage::

    python3 -m benchmarks.ledger.worker timed --workload ordering-uf \\
        --seed 1 --seconds 20 --src src
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time


def _import_program(src: str) -> None:
    """Put ``src`` first on the path and check ``repro`` resolves there."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import repro
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if not where.startswith(src + os.sep):
        raise SystemExit("repro imported from %s, not from %s" % (where, src))


def cpu_seconds() -> float:
    """CPU time of this process since it started, the benchmark's clock.

    Host CPU time rather than wall time: the simulator is single-threaded,
    and wall time on a shared machine also counts other tenants' work.
    """
    # The harness lint profile admits only perf_counter; this measures the
    # host, never simulated time.
    return time.process_time()  # simlint: disable=D1


def _setup(args) -> dict:
    from benchmarks.ledger.workloads import WORKLOADS, run_first_event
    sim = run_first_event(WORKLOADS[args.workload], args.seed)
    cpu = cpu_seconds()
    from benchmarks.ledger.speed import measure_reference
    return {"setup_cpu_s": cpu, "events": sim.events_processed,
            "ref_s": measure_reference()}


def _rep(workload, seed: int, recorder, speed) -> dict:
    """One whole run of the workload.  ``cpu_s`` excludes the speed
    reference samples; ``ref_s`` is their harmonic mean."""
    from benchmarks.ledger.workloads import check_outputs, sim_outputs
    gc.collect()
    recorder.reset()
    speed.start()
    cpu0 = cpu_seconds()
    wall0 = time.perf_counter()
    finished = workload.run(seed)
    wall = time.perf_counter() - wall0
    cpu = cpu_seconds() - cpu0
    ref_s, sampling_s, samples = speed.stop()
    outputs = sim_outputs(finished, recorder)
    return {"cpu_s": cpu - sampling_s, "wall_s": wall - sampling_s,
            "ref_s": ref_s, "ref_samples": samples, "outputs": outputs,
            "problems": check_outputs(workload.name, seed, outputs)}


def _timed(args) -> dict:
    from benchmarks.ledger.speed import SpeedProbe
    from benchmarks.ledger.workloads import (
        WORKLOADS, ResponseRecorder, run_first_event)
    workload = WORKLOADS[args.workload]
    speed = SpeedProbe()
    recorder = ResponseRecorder()
    recorder.install()
    run_first_event(workload, args.seed)
    reps = []
    spent = 0.0
    while True:
        rep = _rep(workload, args.seed, recorder, speed)
        reps.append(rep)
        spent += rep["cpu_s"]
        if spent + rep["cpu_s"] > args.seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {"reps": reps, "peak_rss_mb": (peak - speed.arena_bytes) / 2 ** 20}


def _traced(args) -> dict:
    from benchmarks.ledger.probes import SpanProbe, calibrate
    from benchmarks.ledger.speed import SpeedProbe
    from benchmarks.ledger.workloads import (
        WORKLOADS, ResponseRecorder, run_first_event)
    workload = WORKLOADS[args.workload]
    probe = SpanProbe()
    speed = SpeedProbe(exclude=probe.exclude)
    recorder = ResponseRecorder()
    recorder.install()
    run_first_event(workload, args.seed)
    calibration = calibrate()
    wrapped = probe.install()
    rep = _rep(workload, args.seed, recorder, speed)
    rep.update(spans=probe.snapshot(), calibration=calibration,
               wrapped_methods=wrapped)
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.ledger.worker")
    parser.add_argument("role", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--src", required=True)
    args = parser.parse_args(argv)
    _import_program(args.src)
    role = {"setup": _setup, "timed": _timed, "traced": _traced}[args.role]
    print(json.dumps(role(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
