"""Per-replica load monitoring.

The paper's load balancer "continuously receives replica load information on
the CPU and the disk I/O channel utilization from lightweight daemons
running on each of the replicas" (Section 2.4), and the group-load
calculation averages *smoothed* utilisations.  This module is that daemon:
it samples each replica's CPU and disk resources on a fixed interval and
exposes exponentially smoothed utilisation figures to whoever asks (the
memory-aware load balancer's replica allocator, and the metrics reports).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.sim.resources import ReplicaResources, Resource
from repro.sim.simulator import Simulator


@dataclass
class LoadSample:
    """One smoothed utilisation reading for a replica."""

    cpu: float = 0.0
    disk: float = 0.0

    @property
    def bottleneck(self) -> float:
        """MAX(cpu, disk): the utilisation of the bottleneck resource."""
        return max(self.cpu, self.disk)


class ReplicaMonitor:
    """Samples one replica's resources and keeps smoothed utilisations.

    Slotted: one monitor lives per replica for the whole run and its fields
    are read/written every sampling interval for every replica, so the
    instances stay small and attribute access cheap at high replica counts.
    """

    __slots__ = ("resources", "smoothing", "sample", "_last_time",
                 "_last_cpu_busy", "_last_disk_busy", "samples_taken")

    def __init__(self, resources: ReplicaResources, smoothing: float = 0.5) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing factor must be in (0, 1]")
        self.resources = resources
        self.smoothing = smoothing
        self.sample = LoadSample()
        self._last_time: float = 0.0
        self._last_cpu_busy: float = 0.0
        self._last_disk_busy: float = 0.0
        self.samples_taken = 0

    def take_sample(self, now: float) -> LoadSample:
        """Sample utilisation since the previous call and smooth it."""
        window = now - self._last_time
        if window <= 0:
            return self.sample
        cpu_busy = self.resources.cpu.busy_seconds_until(now)
        disk_busy = self.resources.disk.busy_seconds_until(now)
        cpu_util = min(1.0, max(0.0, (cpu_busy - self._last_cpu_busy) / window))
        disk_util = min(1.0, max(0.0, (disk_busy - self._last_disk_busy) / window))

        alpha = self.smoothing
        if self.samples_taken == 0:
            self.sample = LoadSample(cpu=cpu_util, disk=disk_util)
        else:
            self.sample = LoadSample(
                cpu=alpha * cpu_util + (1 - alpha) * self.sample.cpu,
                disk=alpha * disk_util + (1 - alpha) * self.sample.disk,
            )
        self._last_time = now
        self._last_cpu_busy = cpu_busy
        self._last_disk_busy = disk_busy
        self.samples_taken += 1
        return self.sample


class ClusterMonitor:
    """Monitoring daemons for every replica in the cluster.

    Registers a periodic sampling event with the simulator and exposes the
    latest smoothed sample per replica.  Setting :attr:`on_sample` pushes
    every fresh sample to a consumer as it is taken (the cluster wires it to
    its routing table), so balancers read maintained state instead of
    polling the monitor.
    """

    def __init__(self, sim: Simulator, interval: float = 5.0, smoothing: float = 0.5) -> None:
        if interval <= 0:
            raise ValueError("monitoring interval must be positive")
        self.sim = sim
        self.interval = interval
        self.smoothing = smoothing
        self._monitors: Dict[int, ReplicaMonitor] = {}
        self._started = False
        #: called as ``on_sample(replica_id, sample)`` after every sample.
        self.on_sample: Optional[Callable[[int, LoadSample], None]] = None

    def register(self, replica_id: int, resources: ReplicaResources) -> None:
        self._monitors[replica_id] = ReplicaMonitor(resources, smoothing=self.smoothing)

    def unregister(self, replica_id: int) -> None:
        """Stop monitoring a replica that crashed or left the cluster."""
        self._monitors.pop(replica_id, None)

    def start(self) -> None:
        """Begin periodic sampling (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.schedule_periodic(self.interval, self._sample_all)

    def _sample_all(self) -> None:
        publish = self.on_sample
        now = self.sim.now
        for replica_id, monitor in self._monitors.items():
            sample = monitor.take_sample(now)
            if publish is not None:
                publish(replica_id, sample)

    def load_of(self, replica_id: int) -> LoadSample:
        monitor = self._monitors.get(replica_id)
        if monitor is None:
            raise KeyError("no monitor registered for replica %r" % (replica_id,))
        return monitor.sample

    def loads(self) -> Dict[int, LoadSample]:
        return {replica_id: monitor.sample for replica_id, monitor in self._monitors.items()}

    def replica_ids(self) -> List[int]:
        return sorted(self._monitors.keys())
