"""repro.cluster: a sharded serving layer over KVACCEL.

N independent KVACCEL shard instances in one DES world and a
deterministic hash router in front of them — the substrate every
cluster-level question (shard-count scaling, replication and failover,
resharding, shard isolation under partial failure) is asked on.  See
MODEL.md's "Cluster clock" note for the determinism contract.
"""

from .chaos import ShardScopedPlan, arm_shard
from .cluster import ClusterDb, ClusterShard, shard_process_name
from .replica import (
    INDEX_SHIP,
    REPLAY,
    BackupReplica,
    ReplicaGroup,
    ReplicationConfig,
)
from .reshard import Migration
from .scenario import (
    FailoverReport,
    build_replicated_cluster,
    failover_sweep,
    run_failover_scenario,
)
from .router import HashRouter

__all__ = [
    "ClusterDb",
    "ClusterShard",
    "shard_process_name",
    "HashRouter",
    "ShardScopedPlan",
    "arm_shard",
    "ReplicationConfig",
    "ReplicaGroup",
    "BackupReplica",
    "REPLAY",
    "INDEX_SHIP",
    "Migration",
    "build_replicated_cluster",
    "run_failover_scenario",
    "failover_sweep",
    "FailoverReport",
]
