"""Experiment runner: build a system, drive a workload, collect a RunResult.

``run_workload`` is the single entry point every table/figure bench uses:

    result = run_workload(RunSpec(system="kvaccel", workload="A",
                                  compaction_threads=1), profile)

Systems: ``rocksdb`` (DbImpl), ``adoc`` (AdocDb), ``kvaccel`` (KvaccelDb).
Workloads: Table IV's A-D via the db_bench drivers.
"""

from __future__ import annotations

import copy
import functools
import gc
import time
from dataclasses import dataclass
from typing import Optional

from ..adoc import AdocDb, AdocTunerConfig
from ..cluster import ClusterDb, HashRouter
from ..core import KvaccelDb, RollbackConfig
from ..device import CpuModel, HybridSsd
from ..lsm import DbImpl
from ..metrics import RunCollector, RunResult
from ..obs import (HealthMonitor, Journal, LineageProfiler, TelemetryHub,
                   Tracer, cluster_shard_rules, default_rules,
                   register_digest_sources)
from ..obs.rules import DEVICE_PEAK_BW
from ..sim import Environment
from ..workload import (
    DriverConfig,
    FillRandomDriver,
    ReadWhileWritingDriver,
    SeekRandomDriver,
    WORKLOADS,
    fill_database,
)
from .profiles import HOST_CORES, ExperimentProfile

__all__ = ["RunSpec", "RunOptions", "run_workload", "build_system",
           "WALL_EXTRA_KEYS", "LIVE_EXTRA_KEYS"]

SYSTEMS = ("rocksdb", "adoc", "kvaccel", "cluster")

# Host wall-clock keys written into RunResult.extra by run_workload: the
# only values that vary run to run, so the BENCH_<exp>.json pins and the
# serial-vs-parallel identity check exclude them.  ``events_processed``,
# written beside them, is deterministic and is pinned like any metric.
WALL_EXTRA_KEYS = ("wall_clock_s", "events_per_sec")

# Live objects carried in RunResult.extra for interactive callers (the
# dashboard, analyze scripts).  They hold Environment references and are
# not picklable — parallel workers strip them before returning.
LIVE_EXTRA_KEYS = ("tracer", "telemetry_hub", "health_monitor", "journal")


@dataclass(frozen=True)
class RunOptions:
    """Per-invocation orchestration options, threaded through experiments.

    This replaces the old module-global trace/telemetry switches: every
    piece of run state is explicit, so cells can fan out over worker
    processes without sharing mutable module state.

    ``jobs``       — worker processes for independent cells (1 = serial;
                     results are keyed and ordered by spec regardless).
    ``trace_path`` — base Chrome-trace path; each cell writes
                     ``<stem>.NN.<label>.json`` with NN the cell's index
                     in its experiment's spec order (deterministic under
                     parallelism, unlike a shared counter).
    ``telemetry``  — run a TelemetryHub + health monitor per cell.
    ``lineage``    — install a LineageProfiler per cell; the per-op
                     decomposition lands in ``result.extra["lineage"]``
                     (plain data, survives the fork boundary).
    ``journal_path`` — base journal path; each cell records the flight
                     recorder and writes ``<stem>.NN.<label>.jsonl[.gz]``
                     (same deterministic cell naming as traces).
    """

    jobs: int = 1
    trace_path: Optional[str] = None
    telemetry: bool = False
    lineage: bool = False
    journal_path: Optional[str] = None


@dataclass
class RunSpec:
    """One experiment cell: a system configuration on a workload."""

    system: str
    workload: str = "A"
    compaction_threads: int = 1
    slowdown: bool = True            # rocksdb / adoc variants (Figs 2-3)
    rollback: str = "disabled"       # kvaccel scheme (Figs 12-13)
    seed: int = 1
    duration: Optional[float] = None  # override the profile horizon
    label: Optional[str] = None
    shards: int = 1                  # cluster: shard count
    router: str = "hash"             # cluster: placement (hash only)

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(f"system must be one of {SYSTEMS}")
        if self.workload not in WORKLOADS:
            raise ValueError(f"workload must be one of {sorted(WORKLOADS)}")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.router != "hash":
            raise ValueError("router must be 'hash'")

    @property
    def display(self) -> str:
        if self.label:
            return self.label
        if self.system == "cluster":
            name = f"Cluster({self.shards})"
            if self.rollback != "disabled":
                name += {"lazy": "-L", "eager": "-E"}[self.rollback]
            return name
        base = {"rocksdb": "RocksDB", "adoc": "ADOC", "kvaccel": "KVAccel"}
        name = f"{base[self.system]}({self.compaction_threads})"
        if self.system in ("rocksdb", "adoc") and not self.slowdown:
            name += " w/o slowdown"
        if self.system == "kvaccel" and self.rollback != "disabled":
            name += {"lazy": "-L", "eager": "-E"}[self.rollback]
        return name


def _build_kvaccel_shard(env: Environment, profile: ExperimentProfile,
                         spec: RunSpec, name: str, cpu_name: str):
    """One complete KVACCEL stack (db, ssd, cpu).

    Shared by the single-instance ``kvaccel`` branch and every cluster
    shard so the construction sequence — and therefore the event-seq
    numbering — is identical by construction (the 1-shard differential
    oracle depends on this)."""
    cpu = CpuModel(env, cores=HOST_CORES, name=cpu_name)
    ssd = HybridSsd(env, cpu, copy.deepcopy(profile.ssd))
    opts = copy.deepcopy(profile.options)
    opts.max_background_compactions = spec.compaction_threads
    opts.slowdown_enabled = spec.slowdown
    rb = RollbackConfig(scheme=spec.rollback,
                        quiet_window=profile.rollback_quiet_window)
    db = KvaccelDb(env, opts, ssd, cpu, name=name,
                   rollback=rb,
                   detector_config=copy.deepcopy(profile.detector),
                   page_cache_bytes=profile.page_cache_bytes)
    return db, ssd, cpu


def _build_cluster(env: Environment, profile: ExperimentProfile,
                   spec: RunSpec):
    """N share-nothing KVACCEL shards behind a ClusterDb facade.

    Shards are named ``shard<N>`` (their internal daemons inherit the
    prefix — the hook shard-scoped fault plans key on) and built in shard
    id order.  A cluster has no single ssd or cpu: its hosts are
    ``db.shards``."""
    shards = []
    for sid in range(spec.shards):
        shards.append(_build_kvaccel_shard(
            env, profile, spec, name=f"shard{sid}",
            cpu_name=f"shard{sid}.host" if spec.shards > 1 else "host"))
    router = HashRouter(spec.shards, seed=spec.seed)
    return ClusterDb(env, shards, router), None, None


def build_system(env: Environment, profile: ExperimentProfile, spec: RunSpec):
    """Instantiate (db, ssd, cpu) for a spec (``ssd``/``cpu`` are None
    for a cluster, whose hosts are its shards)."""
    if spec.system == "cluster":
        return _build_cluster(env, profile, spec)
    if spec.system == "kvaccel":
        return _build_kvaccel_shard(env, profile, spec, name="kvaccel",
                                    cpu_name="host")
    cpu = CpuModel(env, cores=HOST_CORES, name="host")
    ssd = HybridSsd(env, cpu, copy.deepcopy(profile.ssd))
    opts = copy.deepcopy(profile.options)
    opts.max_background_compactions = spec.compaction_threads
    opts.slowdown_enabled = spec.slowdown

    cache = profile.page_cache_bytes
    if spec.system == "rocksdb":
        db = DbImpl(env, opts, ssd.block, cpu, name="rocksdb",
                    page_cache_bytes=cache)
    else:
        # ADOC(n) starts from n compaction threads and may double them under
        # pressure — its dynamic range scales with the configured baseline,
        # which is what separates ADOC(1) from ADOC(4) in Fig 12.
        db = AdocDb(env, opts, ssd.block, cpu, name="adoc",
                    page_cache_bytes=cache,
                    tuner_config=AdocTunerConfig(
                        interval=profile.adoc_interval,
                        max_compaction_threads=spec.compaction_threads * 2))
    return db, ssd, cpu


def kernel_counters(env: Environment, run_ns: int) -> dict:
    """A run's ``extra["kernel_profile"]``: counts the kernel keeps, read
    after the run.  Every ``_seq`` increment pairs with one queue push, so
    the pushes are ``_seq`` and the pops are the pushes no longer queued;
    ``run_ns`` is the caller's host time inside ``env.run``.  The kernel
    keeps no Timeout freelist: ``timeout_pool_hit_rate`` stays, at 0.0,
    for the readers of that key."""
    pushes = env._seq
    return {
        "heap_pushes": pushes,
        "heap_pops": pushes - len(env._queue),
        "wall_ns": run_ns,
        "resource_requests": env.resource_requests,
        "resource_queued": env.resource_queued,
        "macro": env.macro.to_dict(),
        "timeout_pool_hit_rate": 0.0,
    }


def _collector_paused(fn):
    """Run ``fn`` with the cyclic garbage collector disabled, restoring the
    caller's ``gc.isenabled()`` state on the way out (also on an error)."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()
    return paused


@_collector_paused
def run_workload(
    spec: RunSpec,
    profile: ExperimentProfile,
    tracer: Optional[Tracer] = None,
    telemetry: bool = False,
    sample_callback=None,
    lineage: bool = False,
    kernel_profile: bool = False,
    journal: Optional[Journal] = None,
) -> RunResult:
    """Run one experiment cell and return its RunResult.

    ``tracer`` and ``journal`` are caller-owned planes installed on the
    cell's environment; the result carries them in ``extra`` and the
    caller writes them out (``run_cells`` does, one file per cell).

    ``telemetry=True`` (or passing ``sample_callback``) runs a
    :class:`TelemetryHub` at the profile's sample period alongside the
    workload.  The built-in health rules, parameterised from the profile,
    are monitored per bucket and the RunResult carries ``telemetry`` +
    ``health_events``.
    ``sample_callback(t, sample)`` is invoked per closed bucket — the live
    dashboard's feed.

    Every result carries ``events_processed`` (kernel events, pinned by
    the ``BENCH_<exp>.json`` documents) and the host wall-clock
    :data:`WALL_EXTRA_KEYS` in ``extra``; ``kernel_profile=True`` adds
    :func:`kernel_counters` as ``extra["kernel_profile"]``.

    The cell runs with the cyclic garbage collector paused.  The kernel
    makes no reference cycles, so reference counting frees everything a
    cell drops, and the collector would only re-scan the live memtables
    and SSTables; ``tests/sim/test_no_cycles.py`` holds that contract.
    """
    wall_t0 = time.perf_counter()
    env = Environment()
    run_ns = 0              # host time inside env.run
    if tracer is not None:
        tracer.install(env)
    if journal is not None:
        journal.install(env)
    hub = None
    if telemetry or sample_callback is not None:
        hub = TelemetryHub(env, period=profile.sample_period)
    monitor = None
    if hub is not None:
        hub.install(env)
        rules = default_rules(
            period=profile.sample_period,
            delayed_write_rate=profile.options.delayed_write_rate)
        # A multi-shard cluster adds per-shard SLO instances after the
        # fleet rules (stall_storm.shardK, shard_failover.shardK, ...).
        if spec.system == "cluster" and spec.shards > 1:
            rules = rules + cluster_shard_rules(
                spec.shards, period=profile.sample_period)
        monitor = HealthMonitor(hub, rules)
        if sample_callback is not None:
            hub.on_sample(sample_callback)
    db, ssd, cpu = build_system(env, profile, spec)
    if journal is not None:
        register_digest_sources(journal, db, ssd)
    wl = WORKLOADS[spec.workload]
    duration = spec.duration if spec.duration is not None else profile.duration

    cfg = DriverConfig(duration=duration, key_space=profile.key_space,
                       seed=spec.seed)

    # Workload D preloads the store before measuring.
    if wl.kind == "seekrandom" and profile.seekrandom_fill_bytes > 0:
        p = fill_database(env, db, profile.seekrandom_fill_bytes, cfg)
        t0 = time.perf_counter_ns()
        env.run(until=p)
        env.run(until=env.process(db.wait_for_quiesce()))
        run_ns += time.perf_counter_ns() - t0

    # Lineage installs after the preload so the fill phase does not
    # pollute the measured op population.
    lineage_prof = LineageProfiler(env).install() if lineage else None

    if wl.kind == "fillrandom":
        driver = FillRandomDriver(env, db, cfg)
    elif wl.kind == "readwhilewriting":
        driver = ReadWhileWritingDriver(env, db, cfg,
                                        write_ratio=wl.write_ratio,
                                        read_ratio=wl.read_ratio)
    else:
        driver = SeekRandomDriver(env, db, cfg)
    collector = RunCollector(env, spec.display, driver,
                             sample_period=profile.sample_period)
    # The run's hosts, shard-id order: what the collector reduces over.
    stacks = ([(sh.db, sh.ssd, sh.cpu) for sh in db.shards]
              if isinstance(db, ClusterDb) else [(db, ssd, cpu)])
    for host, _ssd, _cpu in stacks:
        collector.attach_db_stats(host.stats)

    proc = driver.start()
    t0 = time.perf_counter_ns()
    env.run(until=proc)
    env.run(until=env.now + profile.sample_period)  # flush last bucket
    run_ns += time.perf_counter_ns() - t0
    collector.stop()
    if hub is not None:
        hub.stop()

    result = collector.result(stacks)
    result.extra["snapshot"] = (db.snapshot() if hasattr(db, "snapshot")
                                else db.property_snapshot())
    result.extra["spec"] = spec
    result.extra["profile"] = profile.name
    result.extra["sample_period"] = profile.sample_period
    result.extra["device_peak_bw"] = DEVICE_PEAK_BW
    if isinstance(stacks[0][0], KvaccelDb):
        result.extra["redirected_writes"] = sum(
            host.controller.redirected_writes for host, _ssd, _cpu in stacks)
        result.extra["rollbacks"] = sum(
            host.rollback_manager.rollback_count for host, _ssd, _cpu in stacks)
    if isinstance(db, ClusterDb):
        result.extra["cluster"] = db.cluster_report()
    if isinstance(driver, SeekRandomDriver):
        result.extra["seeks"] = driver.seeks
        result.extra["entries_scanned"] = driver.entries_scanned
    if hub is not None:
        result.telemetry = hub.export()
        result.extra["telemetry_hub"] = hub
        if monitor is not None:
            result.health_events = [e.to_dict() for e in monitor.events]
            result.extra["health_monitor"] = monitor
    db.close()
    if tracer is not None:
        tracer.close_open_spans()
        result.extra["tracer"] = tracer
    if journal is not None:
        # Final checkpoint so even sub-period runs carry digest records;
        # taken after close() so shutdown transitions are in the hash.
        journal.checkpoint_now(env.now)
        result.extra["journal"] = journal
    if lineage_prof is not None:
        result.extra["lineage"] = lineage_prof.to_dict()
    if kernel_profile:
        result.extra["kernel_profile"] = kernel_counters(env, run_ns)
    # The result keeps its planes, not the world: a plane held in
    # ``extra`` would otherwise keep the Environment, and every table in
    # it, alive for as long as the result lives.
    for plane in (hub, tracer, journal):
        if plane is not None:
            plane.detach()
    wall = time.perf_counter() - wall_t0
    events = env.events_scheduled
    result.extra["wall_clock_s"] = wall
    result.extra["events_processed"] = events
    result.extra["events_per_sec"] = events / wall if wall > 0 else 0.0
    return result
