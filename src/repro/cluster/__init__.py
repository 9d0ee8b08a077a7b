"""Sharded cache cluster: consistent hashing + per-shard fault domains.

Layers on :mod:`repro.service`: N independent
:class:`~repro.service.service.CacheService` shards -- each with its
own breaker, serve-stale window and fault plan -- behind a
consistent-hash router with hot-key replication, front-cache
mitigation, bounded rebalancing and cluster-wide outcome conservation.
See ``docs/robustness.md`` for the design and ``X3-cluster`` in
``EXPERIMENTS.md`` for the kill-a-shard experiment built on it.
"""

from repro.cluster.cluster import (
    CLUSTER_OUTCOMES,
    REPLICA_HIT,
    CacheCluster,
    ClusterConfig,
    ClusterGetResult,
    ClusterMetrics,
    FrontCache,
    HotKeyTracker,
    RebalanceReport,
    build_cluster,
)
from repro.cluster.ring import (
    DEFAULT_VNODES,
    HashRing,
    key_point,
    moved_keys,
    stable_hash,
)
from repro.cluster.workload import ClusterWorkload, make_cluster_workload
from repro.service.loadgen import SERVED

__all__ = [
    "CLUSTER_OUTCOMES",
    "DEFAULT_VNODES",
    "REPLICA_HIT",
    "SERVED",
    "CacheCluster",
    "ClusterConfig",
    "ClusterGetResult",
    "ClusterMetrics",
    "ClusterWorkload",
    "FrontCache",
    "HashRing",
    "HotKeyTracker",
    "RebalanceReport",
    "build_cluster",
    "key_point",
    "make_cluster_workload",
    "moved_keys",
    "stable_hash",
]
