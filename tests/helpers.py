"""Shared test fixtures: small devices and DBs that run fast."""

from __future__ import annotations

import random
from unittest import mock

from repro.device import (
    BlockDevice,
    CpuModel,
    Ftl,
    MiB,
    NandArray,
    PcieLink,
)
from repro.device import ftl as ftl_module
from repro.faults import FaultRegistry, fault_seed  # noqa: F401
from repro.faults.kit import (  # noqa: F401  (re-exported to the tests)
    SMALL_GEOMETRY,
    small_options,
    small_ssd,
    small_stack,
)
from repro.lsm import DbImpl, LsmOptions
from repro.metrics import LatencyHistogram
from repro.sim import Environment
from repro.types import encode_key
from repro.workload import value_for


def make_ftl(geometry, split_fraction: float = ftl_module.SPLIT_FRACTION,
             op_fraction: float = ftl_module.OP_FRACTION, cls=Ftl):
    """An FTL whose region split or over-provisioning differs from the
    testbed's constants (small geometries need other shares); ``cls`` is
    ``Ftl`` or the reference model of ``ftl_reference``."""
    with mock.patch.multiple(ftl_module, SPLIT_FRACTION=split_fraction,
                             OP_FRACTION=op_fraction):
        return cls(geometry)


def ftl_map(ftl: Ftl) -> dict:
    """The FTL's full LPN -> PPN map, expanded from its runs.

    Checks the run invariants on the way: runs are sorted, disjoint,
    non-empty and maximal (no two runs touch in both LPN and PPN), and
    the carried page count matches what they cover.
    """
    out = {}
    prev = None
    for start, n, ppn in zip(ftl._starts, ftl._lens, ftl._ppns):
        assert n > 0
        if prev is not None:
            p_start, p_n, p_ppn = prev
            assert p_start + p_n <= start
            assert not (p_start + p_n == start and p_ppn + p_n == ppn)
        out.update(zip(range(start, start + n), range(ppn, ppn + n)))
        prev = (start, n, ppn)
    assert ftl.state_digest()["mapped"] == len(out)
    return out


def small_device(env: Environment, peak_mb: float = 200.0,
                 pcie_mb: float = 1024.0) -> BlockDevice:
    ftl = make_ftl(SMALL_GEOMETRY, split_fraction=0.9)
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
    from repro.cluster import ClusterDb, HashRouter

    registry = None
    if with_faults:
        registry = FaultRegistry(fault_seed(seed)).install(env)
    parts = [small_stack(env, f"shard{sid}", rollback=rollback, **kw)
             for sid in range(shards)]
    cluster = ClusterDb(env, parts, HashRouter(shards, seed=seed))
    return cluster, registry


def owned_key(router, sid: int, rng: random.Random) -> bytes:
    """A uniform key of ``[0, 2**16)`` that ``router`` places on shard
    ``sid``: keys are drawn until one routes there."""
    while True:
        key = encode_key(rng.randrange(1 << 16), 4)
        if router.route(key) == sid:
            return key


def shard_pinned_load(env: Environment, cluster, duration: float,
                      rate: float, seed: int) -> list:
    """Open-loop, write-only load pinned to each shard of a cluster: one
    Poisson arrival stream of ``rate`` puts/s per shard, with uniform keys
    the router places on that shard.  Each put is spawned, not
    awaited, in a ``shard<N>.wl`` process (so a slow shard builds a queue
    instead of slowing its arrivals, and shard-scoped fault plans see the
    op as that shard's).  Runs for ``duration``, drains the in-flight puts
    and returns one write-latency histogram (us) per shard.
    """
    from repro.cluster import shard_process_name

    router = cluster.router
    hists = [LatencyHistogram() for _ in range(cluster.shard_count)]
    inflight = [0]

    def put(sid, key):
        t0 = env.now
        yield from cluster.put(key, value_for(key, 128))
        hists[sid].record((env.now - t0) * 1e6)
        inflight[0] -= 1

    def arrivals(sid):
        rng = random.Random(f"{seed}:wl:{sid}")
        t_end = env.now + duration
        while True:
            yield env.timeout(rng.expovariate(rate))
            if env.now >= t_end:
                return
            key = owned_key(router, sid, rng)
            inflight[0] += 1
            env.process(put(sid, key), name=shard_process_name(sid, "wl"))

    def drain():
        while inflight[0]:
            yield env.timeout(0.005)

    env.run(until=env.all_of([env.process(arrivals(sid))
                              for sid in range(cluster.shard_count)]))
    run(env, drain())
    return hists


def make_replicated_cluster(env: Environment, shards: int = 2,
                            mode: str = "replay",
                            with_faults: bool = False, seed: int = 0,
                            replication=None, **kw):
    """A replicated cluster (primary + backup per shard) on the small
    scenario stacks, optionally with a seeded FaultRegistry.

    Returns ``(cluster, registry)`` like :func:`make_cluster_system`;
    ``replication`` overrides the whole :class:`ReplicationConfig` when
    the test needs another retry policy or degraded-state failover.
    """
    from repro.cluster import ReplicationConfig, build_replicated_cluster

    registry = None
    if with_faults:
        registry = FaultRegistry(fault_seed(seed)).install(env)
    if replication is None:
        replication = ReplicationConfig(mode=mode)
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
