"""Replica groups: primary/backup shard replication and deterministic
failover (ISSUE 10 tentpole).

Each cluster shard slot can be backed by a :class:`ReplicaGroup` — the
primary (the slot's live KVACCEL stack) plus ``BACKUPS`` standby stacks,
all share-nothing and all scheduled in the one DES world.  Two replication
modes, modeled after the two designs in the FORTH RDMA index-replication
paper (PAPERS.md):

* ``replay`` — every acknowledged write streams to each backup's WAL as
  an ordinary write, delayed by a fixed sim-time lag window.  Low
  replication bandwidth (just the op payloads), full backup CPU (each op
  re-executes the whole write path).
* ``index-ship`` — acknowledged writes accumulate and ship wholesale at
  ship-period boundaries as one bulk install per boundary (modeling
  flushed-run/SST shipping), paying an amplification factor on the
  replication link in exchange for amortized backup-side work.

Both modes share one durable, time-ordered **group log** of acked
operations (the model of the primary's replicated WAL): the replicator
applies a log prefix to each backup, and the promotion-time catch-up
protocol replays whatever suffix a backup is missing *before* the slot
accepts writes again — which is why an acknowledged write can never be
lost to a primary kill, and what the acked-write-loss oracle in
:mod:`repro.cluster.scenario` asserts across every crash point.

Failure detection is telemetry-shaped: a per-group heartbeat daemon
checks the primary each period (process liveness, the Main-LSM read-only
latch, optionally the DEGRADED resilience state), counts misses on the
``cluster.shard{k}.hb_misses`` gauge, and triggers failover after a
fixed miss threshold.  Failover is deterministic: halt what is
left of the primary, replay the lag window into the first backup, then
atomically repoint the shard slot (``ClusterShard.db/ssd/cpu`` swap) and
return the group to ACTIVE.  While the group is not accepting, the
cluster facade raises the typed
:class:`~repro.resil.errors.FailoverInProgress` and retries through the
``repro.resil`` executor, so callers ride out the window as latency.

Everything here is off-by-default: a ``ClusterDb`` built without a
:class:`ReplicationConfig` constructs none of these objects, and with
replication on, the group only *reads* primary acks (pure-Python log
appends) — backups run on their own CPUs and devices — so the primary's
trajectory is identical to an unreplicated run until a failure happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from ..device import BandwidthPipe
from ..faults.registry import DROP
from ..resil import RetryPolicy
from ..sim import Environment

__all__ = [
    "REPLAY",
    "INDEX_SHIP",
    "ACTIVE",
    "FAILING_OVER",
    "ReplicationConfig",
    "BackupReplica",
    "ReplicaGroup",
]

REPLAY = "replay"
INDEX_SHIP = "index-ship"
_MODES = (REPLAY, INDEX_SHIP)

# Replica-group states.  ACTIVE: primary serving, replicator streaming.
# FAILING_OVER: slot rejects requests (FailoverInProgress) while catch-up
# replays the lag window into the backup being promoted.
ACTIVE = "active"
FAILING_OVER = "failover"

MiB = 1 << 20

# Per-record framing overhead on the replication link (sequence number,
# lengths, CRC — same order as the device capsule header).
_RECORD_OVERHEAD = 16

# Log records per replication frame.
APPLY_BATCH = 64
# Host-to-host replication link bandwidth, bytes/s.
LINK_BANDWIDTH = 256 * MiB
# Standby stacks per replica group.
BACKUPS = 1
# Heartbeat cadence of the failure detector (sim seconds).
HEARTBEAT_PERIOD = 0.005
# Consecutive missed heartbeats that trigger a failover.
MISS_THRESHOLD = 2
# replay: a record acked at t may apply to backups from t + REPLAY_LAG.
REPLAY_LAG = 0.005
# index-ship: records acked before a k*SHIP_PERIOD boundary install in
# one bulk write after that boundary.
SHIP_PERIOD = 0.02
# Space amplification of shipping whole immutable runs (duplicate and
# not-yet-compacted entries ride along) vs streaming just the ops.
SHIP_AMPLIFICATION = 1.4
# Replicator idle/retransmit poll (sim seconds).
POLL = 0.002


def _record_bytes(key: bytes, value) -> int:
    return _RECORD_OVERHEAD + len(key) + (len(value) if value else 0)


def _default_retry() -> RetryPolicy:
    """The facade's failover retry budget: capped exponential backoff
    sized to span detection (heartbeat misses) plus catch-up, so a
    request issued the instant the primary dies still lands on the
    promoted backup instead of surfacing an error."""
    return RetryPolicy(max_attempts=25, base_delay=1e-3, max_delay=2e-2)


@dataclass
class ReplicationConfig:
    """Knobs for one cluster's replica groups (shared by every shard)."""

    mode: str = REPLAY
    failover_on_degraded: bool = False  # resil DEGRADED state
    retry: RetryPolicy = field(default_factory=_default_retry)

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")


class BackupReplica:
    """One standby KVACCEL stack plus its position in the group log.

    ``cursor`` is the index of the next log record this backup has *not*
    yet applied; ``len(log) - cursor`` is its replication lag in records.
    """

    def __init__(self, db, ssd, cpu):
        self.db = db
        self.ssd = ssd
        self.cpu = cpu
        self.cursor = 0

    def __repr__(self) -> str:
        return f"BackupReplica({self.db.name}, cursor={self.cursor})"


class ReplicaGroup:
    """Primary + ``BACKUPS`` backups behind one cluster shard slot."""

    def __init__(self, env: Environment, shard, backups: list,
                 config: ReplicationConfig):
        if not backups:
            raise ValueError("a replica group needs at least one backup")
        self.env = env
        self.shard = shard              # the ClusterShard slot (mutated on promote)
        self.sid = shard.sid
        self.config = config
        self.backups = list(backups)
        # The group log: time-ordered acked operations, the model of the
        # primary's durable replicated WAL.  Never truncated mid-run so a
        # promotion can always replay the suffix a backup is missing.
        self.log: list = []             # [(t_acked, key, value|None), ...]
        self.state = ACTIVE
        self.primary_alive = True
        self.epoch = 0                  # promotions completed
        self.misses = 0                 # consecutive missed heartbeats
        self.failovers = 0
        self.last_failover_duration = 0.0
        self.catchup_records = 0        # lag-window size at last promotion
        self.retired: list = []         # demoted (dead) primary stacks
        self._stopped = False
        self._applying = False          # replicator mid-apply (promotion barrier)
        # The host-to-host replication pipe.  Its per-frame fault site is
        # the dynamic "shard<N>.repl.transfer".
        self.link = BandwidthPipe(env, bandwidth=LINK_BANDWIDTH, latency=5e-6,
                                  name=f"shard{self.sid}.repl")
        env.process(self._replicate(), name=f"shard{self.sid}.repl")
        env.process(self._heartbeat(), name=f"shard{self.sid}.hb")

    def __repr__(self) -> str:
        return (f"ReplicaGroup(shard{self.sid}, {self.config.mode}, "
                f"state={self.state}, backups={len(self.backups)}, "
                f"log={len(self.log)}, epoch={self.epoch})")

    # -- data-plane hooks (pure Python: never touch the Environment) --------
    def on_ack(self, items) -> None:
        """Record acknowledged writes (``value=None`` for deletes)."""
        t = self.env.now
        log = self.log
        for key, value in items:
            log.append((t, key, value))

    def accepting(self) -> bool:
        return self.state == ACTIVE and self.primary_alive

    def replication_lag(self) -> int:
        """Acked records not yet applied to every backup."""
        if not self.backups:
            return 0
        return len(self.log) - min(b.cursor for b in self.backups)

    # -- chaos entry points --------------------------------------------------
    def kill_primary(self, reason: str = "chaos") -> None:
        """The primary host module dies between events: its daemons stop,
        its device survives — the same crash model as the single-node
        fault harness.  Detection and failover follow from the heartbeat
        daemon; callers wanting the in-flight op to die too interrupt the
        issuing process (see the scenario driver)."""
        if not self.primary_alive:
            return
        self.primary_alive = False
        self.env.probes.touch("repl.primary.kill")
        self._halt_stack(self.shard.db)

    @staticmethod
    def _halt_stack(db) -> None:
        db.detector.stop()
        db.rollback_manager.stop()

    def stop(self) -> None:
        """Let the daemons exit at their next wake (cluster close)."""
        self._stopped = True

    # -- replication ---------------------------------------------------------
    def _due(self) -> int:
        """Log index (exclusive) every backup may apply as of now."""
        now = self.env.now
        log = self.log
        if self.config.mode == REPLAY:
            horizon = now - REPLAY_LAG
        else:
            # Last closed ship boundary; everything acked strictly before
            # it ships in this installment.
            horizon = (now // SHIP_PERIOD) * SHIP_PERIOD
        i = len(log)
        while i > 0 and log[i - 1][0] > horizon:
            i -= 1
        return i

    def _until_next_boundary(self) -> float:
        rem = SHIP_PERIOD - (self.env.now % SHIP_PERIOD)
        return rem if rem > 1e-12 else SHIP_PERIOD

    def _replicate(self) -> Generator:
        env = self.env
        cfg = self.config
        while not self._stopped:
            if self.state != ACTIVE or not self.backups:
                yield env.timeout(POLL)
                continue
            due = self._due()
            if min(b.cursor for b in self.backups) >= due:
                yield env.timeout(POLL if cfg.mode == REPLAY
                                  else self._until_next_boundary())
                continue
            action = yield from env.probes.at("repl.link.send")
            if action is not None and action.kind == DROP:
                # A lost replication frame: the durable log retransmits on
                # the next poll, so a DROP costs lag, never data.
                yield env.timeout(POLL)
                continue
            self._applying = True
            try:
                for b in list(self.backups):
                    if self.state != ACTIVE:
                        break
                    yield from self._apply(b, due)
            finally:
                self._applying = False

    def _apply(self, b: BackupReplica, upto: int,
               catchup: bool = False) -> Generator:
        """Stream ``log[b.cursor:upto]`` into one backup stack."""
        env = self.env
        cfg = self.config
        while b.cursor < upto:
            batch = self.log[b.cursor:min(upto, b.cursor + APPLY_BATCH)]
            nbytes = sum(_record_bytes(k, v) for _t, k, v in batch)
            if cfg.mode == INDEX_SHIP:
                nbytes *= SHIP_AMPLIFICATION
            yield from self.link.transfer(nbytes)
            if catchup:
                yield from env.probes.at("repl.catchup.batch")
            else:
                yield from env.probes.at("repl.apply")
            if cfg.mode == INDEX_SHIP:
                env.probes.touch("repl.ship.install")
                from ..types import make_entries
                main = b.db.main
                entries = make_entries([(k, v) for _t, k, v in batch],
                                       main.next_seqs(len(batch)))
                yield from main.write_entries(entries)
            else:
                for _t, k, v in batch:
                    if v is None:
                        yield from b.db.delete(k)
                    else:
                        yield from b.db.put(k, v)
            b.cursor += len(batch)

    def drain(self) -> Generator:
        """Apply every logged record to every backup now (test/verify
        hook: quiesces replication regardless of lag windows)."""
        for b in list(self.backups):
            while b.cursor < len(self.log):
                yield from self._apply(b, len(self.log))

    # -- failure detection and failover -------------------------------------
    def _beat_ok(self) -> bool:
        cfg = self.config
        if not self.primary_alive:
            return False
        db = self.shard.db
        # The Main-LSM read-only latch.
        if db.main.background_error is not None:
            return False
        if cfg.failover_on_degraded and self.shard.degraded:
            return False
        return True

    def _heartbeat(self) -> Generator:
        env = self.env
        while not self._stopped:
            yield env.timeout(HEARTBEAT_PERIOD)
            if self._stopped or self.state != ACTIVE:
                continue
            if self._beat_ok():
                self.misses = 0
                continue
            self.misses += 1
            env.probes.touch("repl.heartbeat.miss")
            if self.misses >= MISS_THRESHOLD and self.backups:
                self.state = FAILING_OVER
                env.process(self._failover(),
                            name=f"shard{self.sid}.failover")

    def _failover(self) -> Generator:
        env = self.env
        t0 = env.now
        p = env.probes
        p.touch("repl.failover.start")
        self.primary_alive = False
        self._halt_stack(self.shard.db)
        # Wait out any in-progress replicator apply so the catch-up below
        # is the only writer advancing the promoted backup's cursor.
        while self._applying:
            yield env.timeout(POLL)
        promoted = self.backups.pop(0)
        yield from p.at("repl.catchup.start")
        self.catchup_records = len(self.log) - promoted.cursor
        # In-flight facade ops that were already past the admission gate
        # may still ack into the log mid-catch-up; loop until drained.
        while promoted.cursor < len(self.log):
            yield from self._apply(promoted, len(self.log), catchup=True)
        p.touch("repl.promote")
        sh = self.shard
        self.retired.append((sh.db, sh.ssd, sh.cpu))
        # The slot's latency sinks (and any collector teed onto them)
        # move to the promoted stack with the slot.
        dead, live = sh.db.stats, promoted.db.stats
        live.write_latencies = dead.write_latencies
        live.read_latencies = dead.read_latencies
        sh.db, sh.ssd, sh.cpu = promoted.db, promoted.ssd, promoted.cpu
        self.epoch += 1
        self.failovers += 1
        self.misses = 0
        self.primary_alive = True
        self.last_failover_duration = env.now - t0
        self.state = ACTIVE
        p.touch("repl.failover.complete")
        p.add(f"cluster.shard{self.sid}.failovers", 1)

    # -- introspection -------------------------------------------------------
    def state_digest(self) -> dict:
        """Journal digest: the replica-role view of this slot (the
        promoted stack keeps digesting under its original backup scope;
        ``epoch`` is what moves on a role change)."""
        return {
            "mode": self.config.mode,
            "state": self.state,
            "alive": self.primary_alive,
            "epoch": self.epoch,
            "log": len(self.log),
            "cursors": [b.cursor for b in self.backups],
            "failovers": self.failovers,
        }

    def report(self) -> dict:
        return {
            "sid": self.sid,
            "mode": self.config.mode,
            "backups": len(self.backups),
            "state": self.state,
            "epoch": self.epoch,
            "failovers": self.failovers,
            "last_failover_duration": self.last_failover_duration,
            "catchup_records": self.catchup_records,
            "replication_lag": self.replication_lag(),
            "log_records": len(self.log),
            "link_bytes": self.link.ledger.total_bytes,
        }
