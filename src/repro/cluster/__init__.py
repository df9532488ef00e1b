"""repro.cluster: a sharded multi-tenant serving layer over KVACCEL.

N independent KVACCEL shard instances in one DES world, a deterministic
key-space router in front of them, and an open-loop client population
driving skewed multi-tenant traffic — the substrate every cluster-level
question (shard-count scaling, hot shards, tenant isolation under
partial failure) is asked on.  See MODEL.md's "Cluster clock" note for
the determinism contract.
"""

from .chaos import ShardScopedPlan, arm_shard
from .cluster import (
    ClusterCpuView,
    ClusterDb,
    ClusterFabric,
    ClusterShard,
    shard_process_name,
)
from .replica import (
    INDEX_SHIP,
    REPLAY,
    BackupReplica,
    ReplicaGroup,
    ReplicationConfig,
)
from .reshard import Migration, RebalanceConfig
from .scenario import (
    FailoverReport,
    build_replicated_cluster,
    failover_sweep,
    run_failover_scenario,
)
from .population import (
    KEY_SKEWS,
    TRAFFIC_SHAPES,
    ClientPopulation,
    TenantSpec,
    TokenBucket,
)
from .router import (
    ROUTER_POLICIES,
    HashRouter,
    RangeRouter,
    Router,
    make_router,
)

__all__ = [
    "ClusterDb",
    "ClusterShard",
    "ClusterFabric",
    "ClusterCpuView",
    "shard_process_name",
    "Router",
    "HashRouter",
    "RangeRouter",
    "make_router",
    "ROUTER_POLICIES",
    "ClientPopulation",
    "TenantSpec",
    "TokenBucket",
    "TRAFFIC_SHAPES",
    "KEY_SKEWS",
    "ShardScopedPlan",
    "arm_shard",
    "ReplicationConfig",
    "ReplicaGroup",
    "BackupReplica",
    "REPLAY",
    "INDEX_SHIP",
    "Migration",
    "RebalanceConfig",
    "build_replicated_cluster",
    "run_failover_scenario",
    "failover_sweep",
    "FailoverReport",
]
