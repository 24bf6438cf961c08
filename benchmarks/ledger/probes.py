"""Span probes for the traced pass: class-level wrappers, self time, calibration.

The traced pass wraps each layer's public entry points at class level,
before the cluster is built, so every instance the run creates calls the
wrapper.  A span stack gives self time: a span's duration minus the
durations of the spans it directly encloses.  This matters where one layer
forwards to itself (``ReplicatedCertifierLog`` forwards to its leader
``Certifier``) and where layers nest (the engine calls the buffer pool).

The wrapper's own cost is measured on a no-op method (:func:`calibrate`)
and subtracted: the part paid inside a span from that span's self time, the
part paid around it from its parent's.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from typing import Callable, Dict, List, Tuple

#: (layer, span name, module, class, method).  A method is wrapped only on
#: the classes that define it, so an inherited entry point is wrapped once.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("sim", "loop", "repro.sim.simulator", "Simulator", "run_until"),
    ("workloads", "next_type", "repro.workloads.generator",
     "WorkloadGenerator", "next_type"),
    ("core", "dispatch", "repro.core.balancer", "LoadBalancer", "dispatch"),
    ("core", "on_complete", "repro.core.balancer", "LoadBalancer",
     "on_complete"),
    ("core", "periodic", "repro.core.balancer", "LoadBalancer", "periodic"),
    ("core", "periodic", "repro.core.malb", "MemoryAwareLoadBalancer",
     "periodic"),
    ("core", "periodic", "repro.core.baselines", "LardBalancer", "periodic"),
    ("replica", "submit", "repro.replication.replica", "Replica", "submit"),
    ("replica", "pull", "repro.replication.replica", "Replica",
     "pull_updates"),
    ("replica", "apply", "repro.replication.replica", "Replica",
     "apply_remote_writesets"),
) + tuple(
    ("certifier", method, module, cls, method)
    for module, cls in (("repro.replication.certifier", "Certifier"),
                        ("repro.replication.sharding", "ShardedCertifier"),
                        ("repro.replication.recovery",
                         "ReplicatedCertifierLog"))
    for method in ("certify_batch", "certify_rpc", "writesets_since",
                   "truncate", "fail_over")
) + (
    ("engine", "execute", "repro.storage.engine", "DatabaseEngine",
     "execute"),
    ("engine", "apply", "repro.storage.engine", "DatabaseEngine",
     "apply_writesets_fast"),
    ("buffer_pool", "access", "repro.storage.buffer_pool", "BufferPool",
     "access"),
    ("buffer_pool", "scan", "repro.storage.buffer_pool", "BufferPool",
     "scan"),
    ("buffer_pool", "invalidate", "repro.storage.buffer_pool", "BufferPool",
     "invalidate"),
    ("net", "deliver", "repro.net.channel", "Channel", "deliver"),
    ("net", "pull_allowed", "repro.net.channel", "Channel", "pull_allowed"),
    ("net", "audit", "repro.net.invariants", "ConsistencyChecker", "check"),
    ("obs", "span", "repro.obs.trace", "Tracer", "span"),
    ("obs", "instant", "repro.obs.trace", "Tracer", "instant"),
    ("obs", "record_pull", "repro.obs.hub", "ObservabilityHub",
     "record_pull"),
    ("metrics", "record_completion", "repro.sim.metrics",
     "MetricsCollector", "record_completion"),
)

# Indices into a span's statistics list.
CALLS, ENTRIES, TOTAL_NS, SELF_NS, CHILD_CALLS = range(5)


class SpanProbe:
    """Span statistics per ``layer.name`` key.

    For each key: calls; entries (calls not made from inside the same
    layer, so a forwarded call counts once); total and self nanoseconds;
    and the number of spans it directly enclosed.
    """

    def __init__(self) -> None:
        self.keys: List[str] = []
        self.layers: List[str] = []
        self.stats: List[List[int]] = []
        self._stack: List[int] = []
        self._child_ns: List[int] = []

    def _index(self, layer: str, name: str) -> int:
        key = "%s.%s" % (layer, name)
        if key not in self.keys:
            self.keys.append(key)
            self.layers.append(layer)
            self.stats.append([0, 0, 0, 0, 0])
        return self.keys.index(key)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        index = self._index(layer, name)
        mine = self.stats[index]
        every = self.stats
        layers = self.layers
        stack = self._stack
        child_ns = self._child_ns
        clock = time.perf_counter_ns

        # Statistic slots by literal index: this body runs on every call of
        # a wrapped method, and a constant lookup per slot would show.
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            stack.append(index)
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                mine[0] += 1
                mine[2] += elapsed
                mine[3] += elapsed - child_ns.pop()
                if stack:
                    parent = stack[-1]
                    child_ns[-1] += elapsed
                    every[parent][4] += 1
                    if layers[parent] != layer:
                        mine[1] += 1
                else:
                    mine[1] += 1

        return probe

    def exclude(self, elapsed_ns: int) -> None:
        """Keep time spent by an interruption out of the open span's self
        time, as if it were a child span."""
        if self._child_ns:
            self._child_ns[-1] += elapsed_ns

    def install(self) -> int:
        """Wrap every entry point; returns the number of methods wrapped."""
        wrapped = 0
        for layer, name, module, cls_name, method in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            if method in cls.__dict__:
                setattr(cls, method, self.wrap(layer, name, cls.__dict__[method]))
                wrapped += 1
        return wrapped

    def snapshot(self) -> Dict[str, List[int]]:
        return {key: list(stat) for key, stat in zip(self.keys, self.stats)}


class _Noop:
    def call(self) -> None:
        return None


def _calibrate_once(calls: int) -> Dict[str, float]:
    clock = time.perf_counter_ns
    target = _Noop()

    start = clock()
    for _ in range(calls):
        pass
    empty_loop = clock() - start

    start = clock()
    for _ in range(calls):
        target.call()
    plain_loop = clock() - start

    probe = SpanProbe()

    class Wrapped(_Noop):
        pass

    Wrapped.call = probe.wrap("calibration", "inner", _Noop.call)  # type: ignore[method-assign]
    wrapped = Wrapped()

    def loop() -> None:
        for _ in range(calls):
            wrapped.call()

    probe.wrap("calibration", "outer", loop)()
    inner = probe.stats[0]
    outer = probe.stats[1]
    body = (plain_loop - empty_loop) / calls
    per_call = (outer[TOTAL_NS] - plain_loop) / calls
    inside = inner[TOTAL_NS] / calls - body
    return {"per_call_ns": per_call, "inside_ns": inside,
            "outside_ns": per_call - inside}


def calibrate(calls: int = 200_000, rounds: int = 5) -> Dict[str, float]:
    """Median wrapper cost per call, split into inside and outside a span."""
    samples = [_calibrate_once(calls) for _ in range(rounds)]
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}


def calibrated_self_ns(stat: List[int], calibration: Dict[str, float]) -> float:
    """Self time of one span key with the wrapper's own cost taken out."""
    return (stat[SELF_NS] - stat[CALLS] * calibration["inside_ns"]
            - stat[CHILD_CALLS] * calibration["outside_ns"])
