"""ClusterDb: N independent KVACCEL shard instances in one DES world.

Each shard is a complete, share-nothing KVACCEL stack — its own host CPU,
its own hybrid SSD, its own Main-LSM, detector, controller and rollback
daemon — all scheduled on one shared :class:`~repro.sim.Environment`, so a
single simulated clock orders every event across the fleet.  A
:class:`~repro.cluster.router.HashRouter` decides key ownership; the facade
mirrors the single-instance data plane (``put``/``put_batch``/``get``/
``delete``/``scan``) so every existing driver runs against a cluster
unchanged.  It does not pass for one store beyond that: a run's
measurements come from ``shards``, one ``(db, ssd, cpu)`` stack each, which
:class:`~repro.metrics.RunCollector` reduces over.

Determinism contract (MODEL.md "Cluster clock"):

* routing is a pure function of the key (no RNG draw at route time);
* a batch spanning shards fans out as one sub-process per shard, spawned
  in ascending shard-id order, and joins on an ``AllOf`` — results are
  merged in *spec order* (shard id), never completion order;
* a single-shard cluster routes every call straight through
  (``yield from``) with no extra processes or events, so its trajectory
  is bit-identical to the plain single-instance system — the differential
  oracle the golden-trajectory tests pin.

Shard-scoped processes are named ``shard<N>.<op>`` — the hook
:class:`~repro.cluster.chaos.ShardScopedPlan` uses to aim fault
injection at exactly one shard of the fleet.

There is one data path.  Every shard-directed op passes one admission gate
(:meth:`ClusterDb._gated`), ``put_batch`` and ``scan`` each have one
fan-out, and the optional machinery hangs off it behind ``None`` tests:
a :class:`~repro.cluster.replica.ReplicationConfig` plus per-shard backup
stacks make every slot a :class:`~repro.cluster.replica.ReplicaGroup`
(the gate then refuses during a failover and acks to the group);
:meth:`ClusterDb.rebalance` atomically repoints the router while a
migration driver moves the affected keys.  With neither, those tests are
all the path pays — no event, no RNG draw — which
``tests/cluster/test_cluster_golden.py`` pins event for event.
"""

from __future__ import annotations

import heapq
from typing import Generator, Optional

from ..core import KvaccelDb
from ..lsm.db import QUIESCE_POLL
from ..metrics import LatencyHistogram
from ..resil import DEGRADED, HEALTHY, FailoverInProgress, RetryExecutor
from ..sim import Environment
from .replica import (ACTIVE, BACKUPS, BackupReplica, ReplicaGroup,
                      ReplicationConfig)
from .reshard import MIGRATE_BATCH, SCAN_CHUNK, Migration
from .router import HashRouter

__all__ = ["ClusterDb", "ClusterShard", "shard_process_name"]

# A shard is hot when its cumulative op share exceeds this multiple of the
# fleet mean.
HOT_SHARD_FACTOR = 2.0


def shard_process_name(sid: int, op: str) -> str:
    """Canonical name for a process doing shard-``sid`` work.

    Fault plans scope by this prefix (``shard<N>.``), so every process
    spawned on behalf of a shard must go through here.
    """
    return f"shard{sid}.{op}"


class ClusterShard:
    """One shard: a full KVACCEL stack plus its cluster-side bookkeeping."""

    def __init__(self, sid: int, db: KvaccelDb, ssd, cpu):
        self.sid = sid
        self.name = f"shard{sid}"
        self.db = db
        self.ssd = ssd
        self.cpu = cpu
        # Shard-local latency views (microseconds, like DbStats' hooks).
        self.write_hist = LatencyHistogram()
        self.read_hist = LatencyHistogram()
        db.stats.write_latencies = self.write_hist
        db.stats.read_latencies = self.read_hist
        # Facade-side op counters (also feed hot-shard detection) and the
        # telemetry channel each publishes into, named once.
        self.write_ops = 0
        self.read_ops = 0
        self.channels = {which: f"cluster.{self.name}.{which}"
                         for which in ("write_ops", "read_ops")}

    # -- health ------------------------------------------------------------
    @property
    def resil_state(self) -> str:
        return self.db.resil.state if self.db.resil is not None else HEALTHY

    @property
    def degraded(self) -> bool:
        return self.resil_state == DEGRADED

    # -- derived metrics ----------------------------------------------------
    def write_amplification(self) -> float:
        """Device write amplification: (flush + compaction bytes written)
        over user bytes — the per-shard spread the scaling report shows
        (VAT's cost-model lens: WA variance is what makes shard-count
        curves interpretable)."""
        s = self.db.stats
        if s.user_write_bytes == 0:
            return 0.0
        return ((s.flush_bytes_written + s.compaction_bytes_written)
                / s.user_write_bytes)

    def report(self) -> dict:
        """Plain-data per-shard summary (picklable: crosses worker
        processes inside RunResult.extra)."""
        wc = self.db.write_controller
        doc = {
            "sid": self.sid,
            "write_ops": self.write_ops,
            "read_ops": self.read_ops,
            "redirected_writes": self.db.controller.redirected_writes,
            "rollbacks": self.db.rollback_manager.rollback_count,
            "stall_events": wc.stall_events,
            "slowdown_events": wc.slowdown_events,
            "total_stall_time": wc.total_stall_time,
            "write_amplification": self.write_amplification(),
            "resil_state": self.resil_state,
            "write_latency": (self.write_hist.summary()
                              if self.write_hist.total_count else None),
            "read_latency": (self.read_hist.summary()
                             if self.read_hist.total_count else None),
        }
        return doc


class ClusterDb:
    """The sharded serving layer: one facade over N KVACCEL shards."""

    def __init__(self, env: Environment, shards: list, router: HashRouter,
                 name: str = "cluster",
                 replication: Optional[ReplicationConfig] = None,
                 backups: Optional[list] = None):
        """``shards`` is ``[(KvaccelDb, ssd, cpu), ...]`` in shard-id
        order; ``router.shards`` must match its length.

        ``replication`` + ``backups`` turn every slot into a replica
        group: ``backups[sid]`` is that shard's standby stack list,
        ``[(KvaccelDb, ssd, cpu), ...]`` — same shape as a shard entry,
        ``BACKUPS`` entries each.
        """
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        if router.shards != len(shards):
            raise ValueError(
                f"router is for {router.shards} shards, got {len(shards)}")
        self.env = env
        self.name = name
        self.router = router
        self.shards = [ClusterShard(i, db, ssd, cpu)
                       for i, (db, ssd, cpu) in enumerate(shards)]
        self._single = self.shards[0] if len(self.shards) == 1 else None
        # Replica groups (empty dict = replication off; the data-plane
        # guard tests exactly this).
        self.groups: dict[int, ReplicaGroup] = {}
        self._retry: Optional[RetryExecutor] = None
        if replication is not None:
            if backups is None or len(backups) != len(self.shards):
                raise ValueError(
                    "replication needs one backup-stack list per shard")
            for sh, stack_list in zip(self.shards, backups):
                if len(stack_list) != BACKUPS:
                    raise ValueError(
                        f"shard {sh.sid}: expected {BACKUPS} "
                        f"backup stacks, got {len(stack_list)}")
                reps = [BackupReplica(db, ssd, cpu)
                        for db, ssd, cpu in stack_list]
                self.groups[sh.sid] = ReplicaGroup(env, sh, reps, replication)
            self._retry = RetryExecutor(env, replication.retry,
                                        name=f"{name}.failover")
        # Live resharding state.
        self._migration: Optional[Migration] = None
        self.rebalances = 0
        self._moved_total = 0
        self._reshard_tel = False
        self._register_telemetry()

    # -- data plane ---------------------------------------------------------
    def put(self, key: bytes, value) -> Generator:
        return self._write_one(key, value)

    def delete(self, key: bytes) -> Generator:
        return self._write_one(key, None)

    def get(self, key: bytes) -> Generator:
        return self._read_one(key)

    def _admit(self, sid: int) -> Optional[ReplicaGroup]:
        """Refuse while shard ``sid``'s replica group is failing over."""
        grp = self.groups.get(sid)
        if grp is not None and not grp.accepting():
            raise FailoverInProgress(sid, grp.epoch)
        return grp

    def _gated(self, sid: int, op, acked=None) -> Generator:
        """The admission gate every shard-directed op passes: admit, run
        ``op(db)`` on the slot's current stack, ack ``acked``
        (``[(key, value|None), ...]``) to the replica group, and ride
        ``FailoverInProgress`` backoff onto the promoted backup."""
        def attempt() -> Generator:
            grp = self._admit(sid)
            # Re-read the slot per attempt: promotion swaps its .db.
            result = yield from op(self.shards[sid].db)
            if grp is not None and acked is not None:
                grp.on_ack(acked)
            return result

        return self._retrying(attempt, f"cluster.shard{sid}")

    def _retrying(self, attempt, site: str) -> Generator:
        """``attempt()``, under the failover retry budget when replicated."""
        if self._retry is None:
            return attempt()
        return self._retry.call(attempt, site=site)

    def _shard_write(self, sid: int, items) -> Generator:
        """Apply ``[(key, value|None), ...]`` to shard ``sid`` as
        individual ops; acked to the replica group only once every item
        has been applied."""
        def apply(db) -> Generator:
            for k, v in items:
                if v is None:
                    yield from db.delete(k)
                else:
                    yield from db.put(k, v)

        return self._gated(sid, apply, items)

    def _count(self, sh: ClusterShard, which: str, n: int) -> None:
        """Facade-side op accounting (also feeds hot-shard detection)."""
        setattr(sh, which, getattr(sh, which) + n)
        self.env.probes.add(sh.channels[which], n)

    def _fence_writes(self, pairs) -> Generator:
        """During a migration, mark ``pairs`` fresh and block while any of
        their keys sits behind the per-key install barrier (see
        :mod:`repro.cluster.reshard`)."""
        mig = self._migration
        if mig is None:
            return
        for k, v in pairs:
            mig.note_write(k, v)
        for k, _v in pairs:
            while (self._migration is mig and not mig.done
                   and k in mig.installing):
                yield self.env.timeout(5e-4)

    def _write_one(self, key: bytes, value) -> Generator:
        yield from self._fence_writes(((key, value),))
        sid = self.router.route(key)
        self._count(self.shards[sid], "write_ops", 1)
        yield from self._shard_write(sid, ((key, value),))

    def _read_one(self, key: bytes) -> Generator:
        sid = self.router.route(key)
        self._count(self.shards[sid], "read_ops", 1)
        value = yield from self._gated(sid, lambda db: db.get(key))
        mig = self._migration
        if value is None and mig is not None and mig.forward_read(key):
            # Dual-read: the copy may not have landed on the new owner
            # yet — fall back to the pre-rebalance owner.
            self.env.probes.touch("reshard.forward.read")
            old_sid = mig.old_router.route(key)
            if old_sid != sid:
                self._count(self.shards[old_sid], "read_ops", 1)
                value = yield from self._gated(old_sid,
                                               lambda db: db.get(key))
        return value

    def _spawn(self, sh: ClusterShard, gen: Generator, kind: str,
               count: int):
        """Run ``gen`` as the shard-named process fault scoping and the
        interleaving contract key on; with a lineage profiler installed
        the process also records its own per-shard op."""
        if self.env.lineage is not None:
            gen = self._shard_op(sh.sid, gen, kind, count)
        return self.env.process(gen, name=shard_process_name(sh.sid, kind))

    def put_batch(self, pairs: list) -> Generator:
        """Group-commit a batch across its owning shards.

        Single-shard clusters take the transparent pass-through (identical
        event sequence to the plain system).  Multi-shard batches fan out
        as one named process per owning shard — spawned in ascending shard
        id order — and join on AllOf, so sub-batches are serviced
        concurrently in simulated time and the facade returns when the
        slowest shard acks (the cluster-level group-commit latency).  A
        batch with one owner still runs in a shard-named process, so fault
        scoping and interleaving match the fan-out.
        """
        yield from self._fence_writes(pairs)
        if self._single is not None:
            self._count(self._single, "write_ops", len(pairs))
            yield from self._gated(0, lambda db: db.put_batch(pairs), pairs)
            return
        procs = []
        for sid, sub in self.router.split_batch(pairs):  # ascending sid
            sh = self.shards[sid]
            self._count(sh, "write_ops", len(sub))
            gen = self._gated(sid, lambda db, sub=sub: db.put_batch(sub), sub)
            procs.append(self._spawn(sh, gen, "put_batch", len(sub)))
        yield procs[0] if len(procs) == 1 else self.env.all_of(procs)

    def _shard_op(self, sid: int, gen: Generator, kind: str,
                  count: int) -> Generator:
        """Per-shard lineage: the spawned shard process records its own op
        under scope ``cluster.shard{sid}`` (the channel-naming convention),
        so the decomposition can be conditioned per shard.  Only wrapped
        while a profiler is installed — profiler-off runs spawn the exact
        original generator, preserving the pinned trajectories."""
        p = self.env.probes
        ctx = p.op_begin(kind, count, 0, f"cluster.shard{sid}")
        try:
            result = yield from gen
        finally:
            p.op_end(ctx)
        return result

    def scan(self, start_key: bytes, count: int) -> Generator:
        """Cluster range query: per-shard scans merged in key order.

        The hash router scatters keys, so every shard is visited.  Shard
        scans run as concurrent named processes (ascending sid) and the
        merge is by key — each key lives on exactly one shard, so the
        merged stream has no duplicates; during a migration a moved key
        may transiently exist on both its old and new shard, and the merge
        prefers the owner's copy.  Each attempt is admission-gated on
        every replica group.
        """
        return self._retrying(lambda: self._scan_once(start_key, count),
                              "cluster.scan")

    def _scan_once(self, start_key: bytes, count: int) -> Generator:
        """One scan attempt: admit on every shard, fan out, merge."""
        shards = self.shards
        for sh in shards:
            self._admit(sh.sid)
        for sh in shards:
            self._count(sh, "read_ops", 1)
        single = self._single
        if single is not None:
            return (yield from single.db.scan(start_key, count))
        procs = [self._spawn(sh, sh.db.scan(start_key, count), "scan",
                             count or 0) for sh in shards]
        results = yield self.env.all_of(procs)
        mig = self._migration
        if mig is None:
            return list(heapq.merge(*(results[p] for p in procs)))[:count]
        best: dict = {}
        for sh, p in zip(shards, procs):
            for k, v in results[p]:
                owner = self.router.route(k)
                if k in mig.fresh and sh.sid != owner:
                    continue        # stale pre-rebalance copy of a fresh key
                if k not in best or sh.sid == owner:
                    best[k] = v
        return sorted(best.items())[:count]

    # -- live resharding ------------------------------------------------------
    def rebalance(self):
        """Atomically repoint the cluster at a new placement — a
        hash-router seed bump (old seed + 1) — and migrate the moved keys
        shard-to-shard in the background.

        Writes route by the new placement from this call on; reads
        dual-read (new owner, then old owner on a miss) until the
        returned migration process finishes.
        """
        if self._migration is not None:
            raise RuntimeError("a rebalance is already in progress")
        router = HashRouter(self.router.shards, seed=self.router.seed + 1)
        self._ensure_reshard_telemetry()
        mig = Migration(self.env, self.router, router)
        self._migration = mig
        self.router = router            # the atomic write cut-over
        self.rebalances += 1
        self.env.probes.touch("reshard.start")
        return self.env.process(self._migrate(mig), name="cluster.reshard")

    def _migrate(self, mig: Migration) -> Generator:
        """Walk every shard, copy the keys whose owner changed to their
        new shard, and tombstone the old copies.  Copies go through the
        same admission-gated write path as clients (so they survive a
        concurrent failover and replicate to backups); keys freshly
        written after the cut-over are never overwritten — if a fresh
        write races a copy batch, the fresh value is re-applied after."""
        try:
            for src in self.shards:
                start = b"\x00"
                while True:
                    rows = yield from src.db.scan(start, SCAN_CHUNK)
                    if not rows:
                        break
                    mig.scanned_keys += len(rows)
                    moved = [(k, v) for k, v in rows
                             if self.router.route(k) != src.sid]
                    for i in range(0, len(moved), MIGRATE_BATCH):
                        batch = moved[i:i + MIGRATE_BATCH]
                        yield from self.env.probes.at(
                            "reshard.migrate.batch")
                        # Group + raise the install barrier in one
                        # synchronous block: a client write can only
                        # interleave at a yield, so every key here is
                        # either fresh already (skipped) or barred from
                        # client writes until its copy lands.
                        copies: dict[int, list] = {}
                        for k, v in batch:
                            if k not in mig.fresh:
                                copies.setdefault(
                                    self.router.route(k), []).append((k, v))
                                mig.installing.add(k)
                        try:
                            for dst in sorted(copies):
                                yield from self._shard_write(
                                    dst, copies[dst])
                        finally:
                            for subs in copies.values():
                                for k, _v in subs:
                                    mig.installing.discard(k)
                        yield from self._shard_write(
                            src.sid, [(k, None) for k, _ in batch])
                        mig.moved_keys += len(batch)
                    if len(rows) < SCAN_CHUNK:
                        break
                    start = rows[-1][0] + b"\x00"
        finally:
            mig.done = True
            mig.finished_at = self.env.now
            self._moved_total += mig.moved_keys
            self._migration = None
            self.env.probes.touch("reshard.complete")

    # -- replication hooks ----------------------------------------------------
    def drain_replication(self) -> Generator:
        """Apply every acked record to every backup now (test/verify
        hook; ascending shard id for determinism)."""
        for sid in sorted(self.groups):
            yield from self.groups[sid].drain()

    # -- lifecycle -----------------------------------------------------------
    def wait_for_quiesce(self) -> Generator:
        while self._migration is not None:
            yield self.env.timeout(QUIESCE_POLL)
        for sid in sorted(self.groups):
            while self.groups[sid].state != ACTIVE:
                yield self.env.timeout(QUIESCE_POLL)
        for sh in self.shards:
            yield from sh.db.wait_for_quiesce()

    def final_rollback(self) -> Generator:
        for sh in self.shards:
            yield from sh.db.final_rollback()

    def close(self) -> None:
        for grp in self.groups.values():
            grp.stop()
        for sh in self.shards:
            sh.db.close()
        for grp in self.groups.values():
            for b in grp.backups:
                b.db.close()
            for db, _ssd, _cpu in grp.retired:
                db.close()

    # -- introspection --------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def degraded_shards(self) -> int:
        return sum(1 for sh in self.shards if sh.degraded)

    def hot_shard(self) -> int:
        """Index of the shard whose cumulative op share exceeds
        ``HOT_SHARD_FACTOR`` times the fleet mean, or -1 when the fleet is
        balanced."""
        totals = [sh.write_ops + sh.read_ops for sh in self.shards]
        fleet = sum(totals)
        if fleet == 0 or len(totals) < 2:
            return -1
        mean = fleet / len(totals)
        hottest = max(range(len(totals)), key=totals.__getitem__)
        return hottest if totals[hottest] > HOT_SHARD_FACTOR * mean else -1

    def aggregate_latency(self, which: str = "write") -> Optional[dict]:
        """Fleet-wide latency summary: per-shard histograms merged."""
        agg = LatencyHistogram()
        for sh in self.shards:
            agg.merge(sh.write_hist if which == "write" else sh.read_hist)
        return agg.summary() if agg.total_count else None

    def snapshot(self) -> dict:
        return {
            "shards": self.shard_count,
            "router": type(self.router).__name__,
            "degraded_shards": self.degraded_shards(),
            "hot_shard": self.hot_shard(),
            "per_shard": [sh.db.snapshot() for sh in self.shards],
        }

    def cluster_report(self) -> dict:
        """The scaling-report payload: per-shard rows + fleet aggregates."""
        per_shard = [sh.report() for sh in self.shards]
        was = [row["write_amplification"] for row in per_shard]
        doc = {
            "shards": self.shard_count,
            "router": type(self.router).__name__,
            "per_shard": per_shard,
            "aggregate_write_latency": self.aggregate_latency("write"),
            "aggregate_read_latency": self.aggregate_latency("read"),
            "degraded_shards": self.degraded_shards(),
            "hot_shard": self.hot_shard(),
            "write_amplification": {
                "min": min(was) if was else 0.0,
                "max": max(was) if was else 0.0,
                "mean": sum(was) / len(was) if was else 0.0,
            },
        }
        # Replication / resharding rows only when the features are in
        # play, so unreplicated report payloads stay byte-stable.
        if self.groups:
            doc["replication"] = [self.groups[sid].report()
                                  for sid in sorted(self.groups)]
        if self.rebalances:
            doc["rebalances"] = self.rebalances
            doc["moved_keys"] = self._moved_total
        return doc

    # -- telemetry -------------------------------------------------------------
    def _register_telemetry(self) -> None:
        """Per-shard channels on the shared hub (no-op when disabled).

        The single-instance publishers (``lsm.*``, ``wc.*``, ``pcie.*``...)
        use fixed channel names, so in a multi-shard world their *rate*
        channels become fleet aggregates and their *gauge* channels stay
        bound to whichever shard registered first (shard 0).  The
        ``cluster.*`` namespace is the per-shard view: facade-fed op
        rates plus gauges/derivs reading each shard's objects directly.
        """
        tel = self.env.telemetry
        if tel is None:
            return
        from ..resil.degrade import STATE_GAUGE
        for sh in self.shards:
            tel.rate(f"cluster.{sh.name}.write_ops")
            tel.rate(f"cluster.{sh.name}.read_ops")
            # All gauges/derivs read through ``sh`` so they follow the
            # slot across a failover promotion (the slot's .db/.ssd swap).
            tel.deriv(f"cluster.{sh.name}.stall_time",
                      lambda sh=sh: sh.db.write_controller.total_stall_time)
            tel.gauge(f"cluster.{sh.name}.devlsm_bytes",
                      lambda sh=sh: sh.ssd.devlsm.total_bytes)
            tel.gauge(f"cluster.{sh.name}.resil_state",
                      lambda sh=sh: STATE_GAUGE[sh.resil_state])
            if sh.db.resil is not None:
                # Per-shard retry pressure: both device interfaces'
                # executors, so a storm on either path is attributed to
                # its shard (feeds retry_storm.shard{k}).
                tel.deriv(f"cluster.{sh.name}.retries",
                          lambda sh=sh: (sh.ssd.kv.retry.stats.retries
                                         + sh.ssd.block.retry.stats.retries))
        tel.gauge("cluster.degraded_shards",
                  lambda: float(self.degraded_shards()))
        tel.gauge("cluster.hot_shard", lambda: float(self.hot_shard()))
        for sid in sorted(self.groups):
            grp = self.groups[sid]
            tel.rate(f"cluster.shard{sid}.failovers")
            tel.gauge(f"cluster.shard{sid}.repl_lag",
                      lambda g=grp: float(g.replication_lag()))
            tel.gauge(f"cluster.shard{sid}.hb_misses",
                      lambda g=grp: float(g.misses))
            tel.gauge(f"cluster.shard{sid}.failover_duration",
                      lambda g=grp: g.last_failover_duration)

    def _ensure_reshard_telemetry(self) -> None:
        """Register the rebalance channels on first use — a run that
        never reshards keeps its telemetry channel set (and anything
        pinned on it) unchanged."""
        if self._reshard_tel:
            return
        self._reshard_tel = True
        tel = self.env.telemetry
        if tel is None:
            return
        tel.gauge("cluster.reshard.active",
                  lambda: 0.0 if self._migration is None else 1.0)
        tel.gauge("cluster.reshard.moved",
                  lambda: float(self._moved_total
                                + (self._migration.moved_keys
                                   if self._migration is not None else 0)))
