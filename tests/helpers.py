"""Shared test fixtures: small devices and DBs that run fast."""

from __future__ import annotations

from repro.device import (
    BlockDevice,
    CpuModel,
    Ftl,
    MiB,
    NandArray,
    PcieLink,
)
from repro.faults import FaultRegistry, fault_seed  # noqa: F401
from repro.faults.kit import (  # noqa: F401  (re-exported to the tests)
    SMALL_GEOMETRY,
    small_options,
    small_ssd,
    small_stack,
)
from repro.lsm import DbImpl, LsmOptions
from repro.sim import Environment


def small_device(env: Environment, peak_mb: float = 200.0,
                 pcie_mb: float = 1024.0) -> BlockDevice:
    ftl = Ftl(SMALL_GEOMETRY, split_fraction=0.9)
    nand = NandArray(env, SMALL_GEOMETRY, peak_bandwidth=peak_mb * MiB)
    pcie = PcieLink(env, bandwidth=pcie_mb * MiB)
    return BlockDevice(env, ftl, nand, pcie)


def small_db(env: Environment, options: LsmOptions | None = None,
             cores: int = 8, page_cache_bytes: int | None = None,
             **db_kw):
    cpu = CpuModel(env, cores=cores, name="host")
    dev = small_device(env)
    db = DbImpl(env, options or small_options(), dev, cpu,
                page_cache_bytes=page_cache_bytes, **db_kw)
    return db, dev, cpu


def run(env: Environment, gen):
    """Drive one generator to completion and return its value."""
    return env.run(until=env.process(gen))


def small_hybrid(env: Environment, cores: int = 8, **ssd_overrides):
    """A small HybridSsd + host CPU for KVACCEL-level tests."""
    cpu = CpuModel(env, cores=cores, name="host")
    return small_ssd(env, cpu, **ssd_overrides), cpu


def small_kvaccel(env: Environment, options: LsmOptions | None = None,
                  rollback: str = "eager", detector_period: float = 0.002,
                  **kw):
    """A fast-detector KVACCEL stack on a small hybrid SSD."""
    return small_stack(env, options=options, rollback=rollback,
                       detector_period=detector_period, **kw)


def make_cluster_system(env: Environment, shards: int = 2,
                        router: str = "hash", key_space: int = 1 << 16,
                        seed: int = 0, rollback: str = "disabled",
                        with_faults: bool = False, **kw):
    """N small share-nothing KVACCEL shards behind a ClusterDb.

    Shards are named ``shard<N>`` (so their daemons carry the prefix
    shard-scoped fault plans key on) and built in shard-id order — the
    same construction contract as the bench runner's cluster branch.
    ``kw`` reaches :func:`repro.faults.small_stack` (``options=``,
    ``resilience=``, ``detector_period=``...).  Returns
    ``(cluster, registry)``; ``registry`` is a seeded FaultRegistry when
    ``with_faults=True``, else ``None``.
    """
    from repro.cluster import ClusterDb, make_router

    registry = None
    if with_faults:
        registry = FaultRegistry(fault_seed(seed)).install(env)
    parts = [small_stack(env, f"shard{sid}", rollback=rollback, **kw)
             for sid in range(shards)]
    cluster = ClusterDb(
        env, parts, make_router(router, shards, key_space, seed=seed))
    return cluster, registry


def make_replicated_cluster(env: Environment, shards: int = 2,
                            backups: int = 1, mode: str = "replay",
                            with_faults: bool = False, seed: int = 0,
                            replication=None, **kw):
    """A replicated cluster (primary + K backups per shard) on the small
    scenario stacks, optionally with a seeded FaultRegistry.

    Returns ``(cluster, registry)`` like :func:`make_cluster_system`;
    ``replication`` overrides the whole :class:`ReplicationConfig` when
    the test needs non-default lag/ship/heartbeat knobs.
    """
    from repro.cluster import ReplicationConfig, build_replicated_cluster

    registry = None
    if with_faults:
        registry = FaultRegistry(fault_seed(seed)).install(env)
    if replication is None:
        replication = ReplicationConfig(mode=mode, backups=backups)
    cluster = build_replicated_cluster(env, shards=shards,
                                       replication=replication, **kw)
    return cluster, registry


def make_faulty_system(env: Environment, seed: int | None = None,
                       rollback: str = "disabled",
                       record_trace: bool = False,
                       options: LsmOptions | None = None, **kw):
    """A small KVACCEL stack with a seeded FaultRegistry installed.

    Returns ``(db, ssd, cpu, registry)``.  Arm sites on the registry and
    drive ops as usual; the registry's seed (also embedded in oracle
    assertion messages) makes any schedule reproducible:

        db, ssd, cpu, reg = make_faulty_system(env)
        reg.arm("nand.program", NthOccurrencePlan(3))   # FAIL on 3rd program
    """
    resolved = fault_seed(seed) if seed is None else seed
    registry = FaultRegistry(resolved).install(env)
    registry.record_trace = record_trace
    db, ssd, cpu = small_kvaccel(env, options=options, rollback=rollback,
                                 **kw)
    return db, ssd, cpu, registry
