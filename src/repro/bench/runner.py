"""Experiment runner: build a system, drive a workload, collect a RunResult.

``run_workload`` is the single entry point every table/figure bench uses:

    result = run_workload(RunSpec(system="kvaccel", workload="A",
                                  compaction_threads=1), profile)

Systems: ``rocksdb`` (DbImpl), ``adoc`` (AdocDb), ``kvaccel`` (KvaccelDb).
Workloads: Table IV's A-D via the db_bench drivers.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Optional

from ..adoc import AdocDb, AdocTunerConfig
from ..cluster import ROUTER_POLICIES, ClusterCpuView, ClusterDb, ClusterFabric, make_router
from ..core import KvaccelDb, RollbackConfig
from ..device import CpuModel, HybridSsd
from ..lsm import DbImpl
from ..metrics import RunCollector, RunResult
from ..obs import (HealthMonitor, Journal, LineageProfiler, TelemetryHub,
                   Tracer, default_rules,
                   register_digest_sources, write_chrome_trace,
                   write_journal)
from ..sim import Environment, install_kernel_profiler, uninstall_kernel_profiler
from ..workload import (
    DriverConfig,
    FillRandomDriver,
    ReadWhileWritingDriver,
    SeekRandomDriver,
    WORKLOADS,
    fill_database,
)
from .profiles import ExperimentProfile

__all__ = ["RunSpec", "RunOptions", "run_workload", "build_system",
           "cell_trace_path", "cell_journal_path", "WALL_EXTRA_KEYS",
           "LIVE_EXTRA_KEYS"]

SYSTEMS = ("rocksdb", "adoc", "kvaccel", "cluster")

# Host wall-clock keys written into RunResult.extra by run_workload: the
# only values that vary run to run, so the BENCH_<exp>.json pins and the
# serial-vs-parallel identity check exclude them.  ``events_processed``,
# written beside them, is deterministic and is pinned like any metric.
WALL_EXTRA_KEYS = ("wall_clock_s", "events_per_sec")

# Live objects carried in RunResult.extra for interactive callers (the
# dashboard, analyze scripts).  They hold Environment references and are
# not picklable — parallel workers strip them before returning.
LIVE_EXTRA_KEYS = ("tracer", "telemetry_hub", "health_monitor",
                   "shard_health_monitor", "journal")


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
    ``kernel_profile`` — install the DES kernel self-profiler per cell;
                     counters land in ``result.extra["kernel_profile"]``.
    ``journal_path`` — base journal path; each cell records the flight
                     recorder and writes ``<stem>.NN.<label>.jsonl[.gz]``
                     (same deterministic cell naming as traces).
    ``journal_window`` — ``(t0, t1)``: record only events/sites inside the
                     suspect sim-time window (the ``replay-to`` mode;
                     record indices stay absolute).
    """

    jobs: int = 1
    trace_path: Optional[str] = None
    telemetry: bool = False
    lineage: bool = False
    kernel_profile: bool = False
    journal_path: Optional[str] = None
    journal_window: Optional[tuple] = None


def cell_trace_path(base: str, label: str, seq: int) -> str:
    """Derive a per-cell trace path from the base path and cell index."""
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in label)
    stem, dot, ext = base.rpartition(".")
    if not dot:
        return f"{base}.{seq:02d}.{safe}.json"
    return f"{stem}.{seq:02d}.{safe}.{ext}"


def cell_journal_path(base: str, label: str, seq: int) -> str:
    """Per-cell journal path; handles the compound ``.jsonl.gz`` suffix
    (``cell_trace_path``'s single-extension split would land the cell tag
    inside it)."""
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in label)
    for ext in (".jsonl.gz", ".jsonl", ".json", ".gz"):
        if base.endswith(ext):
            return f"{base[:-len(ext)]}.{seq:02d}.{safe}{ext}"
    return f"{base}.{seq:02d}.{safe}.jsonl.gz"


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
    router: str = "hash"             # cluster: key-space routing policy

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(f"system must be one of {SYSTEMS}")
        if self.workload not in WORKLOADS:
            raise ValueError(f"workload must be one of {sorted(WORKLOADS)}")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.router not in ROUTER_POLICIES:
            raise ValueError(f"router must be one of {ROUTER_POLICIES}")

    @property
    def display(self) -> str:
        if self.label:
            return self.label
        if self.system == "cluster":
            name = f"Cluster({self.shards})"
            if self.router != "hash":
                name += f"/{self.router}"
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
    cpu = CpuModel(env, cores=profile.host_cores, name=cpu_name)
    ssd = HybridSsd(env, cpu, copy.deepcopy(profile.ssd))
    opts = copy.deepcopy(profile.options)
    opts.max_background_compactions = spec.compaction_threads
    opts.slowdown_enabled = spec.slowdown
    rb = RollbackConfig(scheme=spec.rollback,
                        period=profile.rollback_period,
                        quiet_window=profile.rollback_quiet_window)
    db = KvaccelDb(env, opts, ssd, cpu, name=name,
                   rollback=rb,
                   detector_config=copy.deepcopy(profile.detector),
                   page_cache_bytes=profile.page_cache_bytes,
                   resilience=profile.resilience)
    return db, ssd, cpu


def _build_cluster(env: Environment, profile: ExperimentProfile,
                   spec: RunSpec):
    """N share-nothing KVACCEL shards behind a ClusterDb facade.

    Shards are named ``shard<N>`` (their internal daemons inherit the
    prefix — the hook shard-scoped fault plans key on) and built in shard
    id order.  A 1-shard cluster returns the real shard's ssd/cpu so the
    harness measures exactly the single-instance objects."""
    shards = []
    for sid in range(spec.shards):
        shards.append(_build_kvaccel_shard(
            env, profile, spec, name=f"shard{sid}",
            cpu_name=f"shard{sid}.host" if spec.shards > 1 else "host"))
    router = make_router(spec.router, spec.shards, profile.key_space,
                         seed=spec.seed)
    db = ClusterDb(env, shards, router)
    if spec.shards == 1:
        _, ssd, cpu = shards[0]
        return db, ssd, cpu
    return db, ClusterFabric(db.shards), ClusterCpuView(db.shards)


def build_system(env: Environment, profile: ExperimentProfile, spec: RunSpec):
    """Instantiate (db, ssd, cpu) for a spec."""
    if spec.system == "cluster":
        return _build_cluster(env, profile, spec)
    if spec.system == "kvaccel":
        return _build_kvaccel_shard(env, profile, spec, name="kvaccel",
                                    cpu_name="host")
    cpu = CpuModel(env, cores=profile.host_cores, name="host")
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


def _main_db(db):
    return db.main if isinstance(db, KvaccelDb) else db


def run_workload(
    spec: RunSpec,
    profile: ExperimentProfile,
    tracer: Optional[Tracer] = None,
    trace_path: Optional[str] = None,
    telemetry: bool = False,
    health_rules: Optional[list] = None,
    sample_callback=None,
    options: Optional[RunOptions] = None,
    cell_index: int = 0,
    lineage: bool = False,
    kernel_profile: bool = False,
    journal: Optional[Journal] = None,
) -> RunResult:
    """Run one experiment cell and return its RunResult.

    ``tracer`` installs a caller-owned tracer on the cell's environment;
    ``trace_path`` additionally writes a Chrome trace there.  With neither,
    ``options.trace_path`` (if set) applies, one file per cell named from
    ``cell_index`` (the cell's position in its experiment's spec order).

    ``telemetry=True`` (or ``options.telemetry``, or passing
    ``health_rules``/``sample_callback``) runs a :class:`TelemetryHub` at
    the profile's sample period alongside the workload.  ``health_rules``
    (default: the built-in set parameterised from the profile) are
    monitored per bucket and the RunResult carries ``telemetry`` +
    ``health_events``.  ``sample_callback(t, sample)`` is invoked per
    closed bucket — the live dashboard's feed.

    Every result carries ``events_processed`` (kernel events, pinned by
    the ``BENCH_<exp>.json`` documents) and the host wall-clock
    :data:`WALL_EXTRA_KEYS` in ``extra``.
    """
    wall_t0 = time.perf_counter()
    env = Environment()
    kprof = None
    if kernel_profile or (options is not None and options.kernel_profile):
        kprof = install_kernel_profiler(env)
    cell_path = trace_path
    if (cell_path is None and tracer is None and options is not None
            and options.trace_path is not None):
        cell_path = cell_trace_path(options.trace_path, spec.display,
                                    cell_index + 1)
    if tracer is None and cell_path is not None:
        tracer = Tracer()
    if tracer is not None:
        tracer.install(env)
    journal_path = None
    if (journal is None and options is not None
            and options.journal_path is not None):
        journal_path = cell_journal_path(options.journal_path, spec.display,
                                         cell_index + 1)
        journal = Journal(
            period=profile.sample_period,
            window=options.journal_window if options is not None else None)
    if journal is not None:
        journal.install(env)
    hub = None
    if (telemetry or (options is not None and options.telemetry)
            or health_rules is not None or sample_callback is not None):
        hub = TelemetryHub(env, period=profile.sample_period)
    monitor = None
    if hub is not None:
        hub.install(env)
        if health_rules is not None:
            rules = health_rules
        else:
            # Per-shard SLO instances (cluster_shard_rules) are no
            # longer wired here: ClusterDb registers its own
            # HealthMonitor on the hub at construction, and its events
            # are merged into ``health_events`` below.
            rules = default_rules(
                period=profile.sample_period,
                device_peak_bw=profile.device_peak_bw,
                delayed_write_rate=profile.options.delayed_write_rate,
                value_size=profile.value_size)
        monitor = HealthMonitor(hub, rules)
        if sample_callback is not None:
            hub.on_sample(sample_callback)
    db, ssd, cpu = build_system(env, profile, spec)
    if journal is not None:
        register_digest_sources(journal, db, ssd)
    wl = WORKLOADS[spec.workload]
    duration = spec.duration if spec.duration is not None else profile.duration

    cfg = DriverConfig(
        duration=duration,
        key_space=profile.key_space,
        key_size=profile.key_size,
        value_size=profile.value_size,
        batch_size=profile.batch_size,
        seed=spec.seed,
    )

    # Workload D preloads the store before measuring.
    if wl.kind == "seekrandom" and profile.seekrandom_fill_bytes > 0:
        p = fill_database(env, db, profile.seekrandom_fill_bytes, cfg)
        env.run(until=p)
        main = _main_db(db)
        env.run(until=env.process(main.wait_for_quiesce()))

    # Lineage installs after the preload so the fill phase does not
    # pollute the measured op population.
    lineage_prof = None
    if lineage or (options is not None and options.lineage):
        lineage_prof = LineageProfiler(env).install()

    collector = RunCollector(env, spec.display,
                             sample_period=profile.sample_period)
    collector.attach_db_stats(db.stats)

    if wl.kind == "fillrandom":
        driver = FillRandomDriver(env, db, cfg)
    elif wl.kind == "readwhilewriting":
        driver = ReadWhileWritingDriver(env, db, cfg,
                                        write_ratio=wl.write_ratio,
                                        read_ratio=wl.read_ratio)
    else:
        driver = SeekRandomDriver(env, db, cfg,
                                  nexts_per_seek=profile.seekrandom_nexts)
    # Meters shared with the collector so per-bucket series line up.
    driver.write_meter = collector.write_meter
    driver.read_meter = collector.read_meter

    proc = driver.start()
    env.run(until=proc)
    env.run(until=env.now + profile.sample_period)  # flush last bucket
    collector.stop()
    if hub is not None:
        hub.stop(flush=True)

    main = _main_db(db)
    result = collector.result(
        write_ops=driver.write_ops,
        read_ops=driver.read_ops,
        write_bytes=driver.write_bytes,
        write_controller=main.write_controller,
        host_cpu=cpu,
        pcie_ledger=ssd.pcie.ledger,
    )
    result.extra["snapshot"] = (db.snapshot() if hasattr(db, "snapshot")
                                else main.property_snapshot())
    result.extra["spec"] = spec
    result.extra["profile"] = profile.name
    result.extra["sample_period"] = profile.sample_period
    result.extra["device_peak_bw"] = profile.device_peak_bw
    if isinstance(db, KvaccelDb):
        result.extra["redirected_writes"] = db.controller.redirected_writes
        result.extra["rollbacks"] = db.rollback_manager.rollback_count
    elif isinstance(db, ClusterDb):
        result.extra["redirected_writes"] = sum(
            sh.db.controller.redirected_writes for sh in db.shards)
        result.extra["rollbacks"] = sum(
            sh.db.rollback_manager.rollback_count for sh in db.shards)
        result.extra["cluster"] = db.cluster_report()
    if isinstance(driver, SeekRandomDriver):
        result.extra["seeks"] = driver.seeks
        result.extra["entries_scanned"] = driver.entries_scanned
    if hub is not None:
        result.telemetry = hub.export()
        result.extra["telemetry_hub"] = hub
        if monitor is not None:
            events = [e.to_dict() for e in monitor.events]
            # The cluster facade runs its own per-shard monitor
            # (stall_storm.shardK, shard_failover.shardK, ...); merge
            # its events so callers see one timeline.  sorted() is
            # stable, so same-t events keep fleet-then-shard order.
            shard_monitor = getattr(db, "health", None)
            if shard_monitor is not None:
                events += [e.to_dict() for e in shard_monitor.events]
                result.extra["shard_health_monitor"] = shard_monitor
            result.health_events = sorted(events, key=lambda e: e["t"])
            result.extra["health_monitor"] = monitor
    db.close()
    if tracer is not None:
        tracer.close_open_spans()
        result.extra["tracer"] = tracer
        if cell_path is not None:
            write_chrome_trace(tracer, cell_path, label=spec.display)
            result.extra["trace_path"] = cell_path
    if journal is not None:
        # Final checkpoint so even sub-period runs carry digest records;
        # taken after close() so shutdown transitions are in the hash.
        journal.checkpoint_now(env.now)
        result.extra["journal"] = journal
        if journal_path is not None:
            write_journal(journal, journal_path,
                          meta={"cell": spec.display, "seed": spec.seed,
                                "profile": profile.name})
        result.extra["journal_path"] = journal_path
    if lineage_prof is not None:
        result.extra["lineage"] = lineage_prof.to_dict()
    if kprof is not None:
        uninstall_kernel_profiler(env)
        result.extra["kernel_profile"] = kprof.to_dict()
    wall = time.perf_counter() - wall_t0
    events = env.events_scheduled
    result.extra["wall_clock_s"] = wall
    result.extra["events_processed"] = events
    result.extra["events_per_sec"] = events / wall if wall > 0 else 0.0
    return result
