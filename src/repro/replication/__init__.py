"""Tashkent replication substrate: writesets, certifier, proxies, replicas, cluster."""

from repro.replication.certifier import (CertificationResult, Certifier,
                                         CertifierStats, LagSubscriptionIndex)
from repro.replication.cluster import (
    ClusterConfig,
    DEFAULT_MEMORY_OVERHEAD_BYTES,
    ReplicatedCluster,
    RunResult,
    standalone_config,
)
from repro.replication.proxy import AdmissionController, ProxyConfig, ReplicaProxy
from repro.replication.recovery import (
    ReplicatedCertifierLog,
    recover_replica,
    recovery_replay_plan,
)
from repro.replication.replica import Replica, TransactionContext
from repro.replication.writeset import CertifiedWriteSet, WriteItem, WriteSet

__all__ = [
    "AdmissionController",
    "CertificationResult",
    "CertifiedWriteSet",
    "Certifier",
    "CertifierStats",
    "ClusterConfig",
    "DEFAULT_MEMORY_OVERHEAD_BYTES",
    "LagSubscriptionIndex",
    "ProxyConfig",
    "Replica",
    "ReplicaProxy",
    "ReplicatedCertifierLog",
    "ReplicatedCluster",
    "RunResult",
    "TransactionContext",
    "WriteItem",
    "WriteSet",
    "recover_replica",
    "recovery_replay_plan",
    "standalone_config",
]
