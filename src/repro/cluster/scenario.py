"""Failover / rebalance chaos scenarios and the acked-write-loss oracle.

The drivers behind ``python -m repro.bench failover``, the failover test
battery and the CI ``scenario-smoke`` failover leg.  One scenario is one
deterministic story in one DES world:

1. build a replicated cluster (every shard a primary + K backups);
2. drive a scripted client workload through the facade with the kit's
   :class:`~repro.faults.kit.OracleClient`, so every *acknowledged* write
   is shadowed by a :class:`~repro.faults.oracle.DifferentialOracle`;
3. kill the target shard's primary — either by arming a shard-scoped
   ``CRASH`` fault on a real site (``db.write.gate`` by default, so the
   host module dies mid-write exactly like the single-node crash
   harness) or programmatically at an op index — and let the replica
   group's failure detector drive promotion;
4. optionally bump the router seed mid-run (live resharding) so failover
   and migration compose;
5. settle (promotion complete, migration drained, shards quiesced) and
   run :meth:`DifferentialOracle.verify` through the facade.

That verification is the acked-write-loss oracle: a violation whose key
reads back nothing is ``lost``, one that reads back a different value is
``stale`` — a correct replication + catch-up protocol yields neither, at
*every* crash point, in *both* replication modes.

Seeding honors ``REPRO_FAULT_SEED`` via :func:`repro.faults.fault_seed`
(same contract as the single-node harness), and ``journal_path`` records
the full flight-recorder journal so two runs of the same scenario can be
byte-diffed with ``python -m repro.obs diff``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from ..faults.kit import (
    OracleClient,
    abandon_inflight,
    arm_crash,
    small_stack,
)
from ..faults.plan import NthOccurrencePlan
from ..faults.registry import FaultRegistry, fault_seed
from ..obs import Journal, register_digest_sources, write_journal
from ..sim import Environment, Interrupt
from ..types import encode_key
from .chaos import ShardScopedPlan
from .cluster import ClusterDb
from .replica import REPLAY, ReplicationConfig
from .router import make_router

__all__ = ["build_replicated_cluster", "run_failover_scenario",
           "failover_sweep", "FailoverReport"]


def build_replicated_cluster(env: Environment, shards: int = 2,
                             replication: Optional[ReplicationConfig] = None,
                             router: str = "hash", key_space: int = 1 << 16,
                             seed: int = 0, detector_period: float = 0.002,
                             resilience=None, options=None) -> ClusterDb:
    """N small shards, each with ``replication.backups`` standby stacks.

    Primaries are named ``shard<sid>`` (their daemons inherit the prefix
    shard-scoped fault plans key on); backups are named ``shard<sid>b<j>``
    — deliberately *without* the ``shard<sid>.`` dot, so a fault aimed at
    shard ``sid`` never also hits its standbys or the replication
    daemons.
    """
    replication = replication or ReplicationConfig()

    def stack(name: str):
        return small_stack(env, name, f"{name}.host", options=options,
                           detector_period=detector_period,
                           resilience=resilience)

    parts = []
    backup_stacks = []
    for sid in range(shards):
        parts.append(stack(f"shard{sid}"))
        backup_stacks.append([stack(f"shard{sid}b{j}")
                              for j in range(replication.backups)])
    return ClusterDb(env, parts,
                     make_router(router, shards, key_space, seed=seed),
                     replication=replication, backups=backup_stacks)


@dataclass
class FailoverReport:
    """Outcome of one failover/rebalance scenario run."""

    mode: str
    seed: int
    kill_site: Optional[str]
    kill_occurrence: int
    killed_shard: int
    crashed: bool = False
    ops: int = 0
    acked: int = 0
    aborted: int = 0
    lost: list = field(default_factory=list)      # acked keys that vanished
    stale: list = field(default_factory=list)     # acked keys reading wrong
    failovers: int = 0
    failover_duration: float = 0.0
    catchup_records: int = 0
    rebalanced: bool = False
    moved_keys: int = 0
    sim_time: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Zero acked-write loss, and — if the primary died — a real
        promotion happened (the oracle exercised the machinery, it did
        not vacuously pass)."""
        if self.error is not None or self.lost or self.stale:
            return False
        if self.crashed and self.failovers < 1:
            return False
        return True

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        kill = (f"{self.kill_site}#{self.kill_occurrence}"
                if self.kill_site else "scripted")
        extra = ""
        if self.lost:
            extra += f" lost={len(self.lost)}"
        if self.stale:
            extra += f" stale={len(self.stale)}"
        if self.error:
            extra += f" error={self.error}"
        if self.rebalanced:
            extra += f" moved={self.moved_keys}"
        return (f"[{status}] {self.mode} kill={kill} "
                f"shard{self.killed_shard} acked={self.acked} "
                f"failovers={self.failovers} "
                f"(seed={self.seed:#x}){extra}")


def _value(i: int) -> bytes:
    return (b"v%06d;" % i) * 24       # ~192 B, deterministic per op index


def run_failover_scenario(
        mode: str = REPLAY, *,
        shards: int = 2, backups: int = 1, ops: int = 80,
        key_range: int = 24,
        kill_site: Optional[str] = "db.write.gate",
        kill_occurrence: int = 5, kill_shard: int = 0,
        kill_at_op: Optional[int] = None,
        degrade_at_op: Optional[int] = None,
        reshard_at_op: Optional[int] = None,
        reshard_seed: Optional[int] = None,
        seed: Optional[int] = None,
        resilience=None,
        replication: Optional[ReplicationConfig] = None,
        extra_arms: Optional[Callable] = None,
        journal_path: Optional[str] = None) -> FailoverReport:
    """One scenario run; see the module docstring for the story.

    ``kill_site``/``kill_occurrence`` arm a shard-scoped CRASH on the
    target shard's client ops (``op="wl"`` scope, so the shard's backups
    and replication daemons are outside the blast radius);
    ``kill_at_op`` kills programmatically instead; ``degrade_at_op``
    forces the resilience layer DEGRADED (pair with
    ``failover_on_degraded=True`` to promote off degradation);
    ``reshard_at_op`` bumps the router seed mid-run.  ``extra_arms`` is a
    hook called as ``extra_arms(registry, env, cluster)`` after build —
    the determinism tests inject an extra DELAY on the replication link
    through it.
    """
    seed = fault_seed(seed)
    env = Environment()
    registry = FaultRegistry(seed).install(env)
    journal = None
    if journal_path is not None:
        journal = Journal(period=0.01).install(env)
    if replication is None:
        replication = ReplicationConfig(mode=mode, backups=backups)
    cluster = build_replicated_cluster(
        env, shards=shards, replication=replication,
        resilience=resilience)
    if journal is not None:
        register_digest_sources(journal, cluster)
    report = FailoverReport(mode=replication.mode, seed=seed,
                            kill_site=kill_site,
                            kill_occurrence=kill_occurrence,
                            killed_shard=kill_shard, ops=ops)
    crash_ev = None
    if kill_site is not None:
        crash_ev = arm_crash(registry, env, kill_site, ShardScopedPlan(
            env, kill_shard, NthOccurrencePlan(kill_occurrence), op="wl"))
    if extra_arms is not None:
        extra_arms(registry, env, cluster)

    client = OracleClient(cluster, seed=seed)
    oracle = client.oracle

    def client_op(key: bytes, value) -> Generator:
        """One client request; when the crash interrupt abandons it, its
        oracle op stays in flight for the driver's client-retry."""
        try:
            yield from client.write(key, value)
        except Interrupt:
            report.aborted += 1

    def driver() -> Generator:
        handled = crash_ev is None
        mig_proc = None
        for i in range(ops):
            if degrade_at_op == i:
                db = cluster.shards[kill_shard].db
                if db.resil is not None:
                    # Wedge the drain the resilience layer would use to
                    # heal itself: with the rollback daemon stopped,
                    # note_drained() never fires and the machine stays
                    # DEGRADED — the persistent sickness
                    # ``failover_on_degraded`` exists to promote off.
                    db.rollback_manager.stop()
                    db.resil.force_degrade()
            if kill_at_op == i:
                report.crashed = True
                cluster.groups[kill_shard].kill_primary()
            if reshard_at_op == i:
                report.rebalanced = True
                mig_proc = cluster.rebalance(seed=reshard_seed)
            if i % 9 == 8:
                key, value = encode_key((i - 3) % key_range), None
            else:
                key, value = encode_key(i % key_range), _value(i)
            sid = cluster.router.route(key)
            p = env.process(client_op(key, value), name=f"shard{sid}.wl{i}")
            if handled:
                yield p
                continue
            yield env.any_of([p, crash_ev])
            if registry.crashed_at is None:
                continue
            # The armed crash fired: the target shard's host module dies
            # between events — abandon the in-flight request, disarm, and
            # let the failure detector drive promotion while the client
            # retries the aborted op through the facade (it rides
            # FailoverInProgress backoff onto the promoted backup).
            handled = True
            report.crashed = True
            if abandon_inflight(p):
                yield p
            registry.clear_arms()
            if extra_arms is not None:
                # clear_arms() wiped the caller's plans along with the
                # spent CRASH; re-install them so chaos aimed at the
                # recovery machinery (replication link, catch-up) stays
                # live through detection and promotion.
                extra_arms(registry, env, cluster)
            cluster.groups[kill_shard].kill_primary()
            if oracle.inflight is not None:
                (k2, v2), = oracle.inflight.items()
                oracle.abort()
                yield from client.write(k2, v2)
        if degrade_at_op is not None or kill_at_op is not None:
            # A scripted kill/degrade may land near the end of the op
            # loop with the workload no longer blocking on the slot —
            # give the heartbeat daemon sim time to detect and promote
            # before settling (bounded so a misconfigured scenario still
            # terminates and fails its assertions instead of hanging).
            grp = cluster.groups[kill_shard]
            deadline = env.now + 1.0
            while grp.failovers == 0 and env.now < deadline:
                yield env.timeout(replication.heartbeat_period)
        yield from cluster.wait_for_quiesce()
        if mig_proc is not None and not mig_proc.processed:
            yield mig_proc

    try:
        env.run(until=env.process(driver()))
        for v in env.run(until=env.process(
                oracle.verify(cluster, allow_inflight=False))):
            (report.lost if v.got is None else report.stale).append(v.key)
    except Exception as exc:      # surface per-run, keep sweeps going
        report.error = f"{type(exc).__name__}: {exc}"
    report.acked = oracle.acked_ops
    for grp in cluster.groups.values():
        report.failovers += grp.failovers
        report.failover_duration = max(report.failover_duration,
                                       grp.last_failover_duration)
        report.catchup_records = max(report.catchup_records,
                                     grp.catchup_records)
    report.moved_keys = cluster._moved_total
    report.sim_time = env.now
    cluster.close()
    if journal is not None:
        write_journal(journal, journal_path,
                      meta={"scenario": "failover", "seed": seed,
                            "mode": replication.mode})
    return report


def failover_sweep(mode: str = REPLAY, *,
                   occurrences=range(1, 6),
                   sites=("db.write.gate",),
                   seed: Optional[int] = None,
                   ops: int = 60, **kw) -> list:
    """The shard-scoped crash sweep: one scenario per (site, occurrence)
    primary-kill point.  ``all(r.ok for r in reports)`` is the acceptance
    criterion: zero acknowledged writes lost at every crash point."""
    reports = []
    for site in sites:
        for occ in occurrences:
            reports.append(run_failover_scenario(
                mode, kill_site=site, kill_occurrence=occ,
                seed=seed, ops=ops, **kw))
    return reports
