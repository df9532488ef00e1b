"""Crash-consistency harness: one KVACCEL stack + workload + oracle.

The harness owns everything a crash-point run needs:

* a deterministic small KVACCEL system (fresh per run, seeded);
* a scripted workload that exercises every layer — normal writes through
  flush and compaction, a forced stall window with redirected writes and
  Dev-LSM flushes, reads over both interfaces, deletes, a scripted
  rollback, and a post-rollback phase;
* a :class:`~repro.faults.oracle.DifferentialOracle` shadowing every
  acknowledged operation;
* the crash choreography: run the workload until the armed fault site
  fires, interrupt the in-flight op, run recovery (``db.recover()``, the
  rollback after metadata loss), then verify the oracle's invariants
  against the recovered store.

Crash model ("metadata crash", paper Section VI-D): the KVACCEL host
module dies — the volatile metadata table is lost and the in-flight
operation is abandoned — while Main-LSM memory state and the device
survive.  Full host power loss (WAL tail loss, torn SSTs) is exercised
separately by ``DbImpl.crash_and_recover`` and its property tests; see
MODEL.md for the modeled-vs-out-of-scope matrix.

Determinism: the stack, workload and fault schedule derive from one seed,
so any failure reproduces from the seed printed in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from ..core import KvaccelDb
from ..lsm.sstable import iter_rows
from ..obs import Journal, Tracer, write_divergence_artifact
from ..resil import DeviceError, TRANSIENT
from ..sim import Environment, Interrupt
from ..types import encode_key
from .kit import (
    SMALL_RESILIENCE,
    OracleClient,
    abandon_inflight,
    arm_crash,
    scripted_stack,
)
from .oracle import Violation
from .plan import NthOccurrencePlan
from .registry import DEFAULT_SEED, FaultRegistry, SiteHit

__all__ = [
    "KvaccelFaultHarness",
    "CrashReport",
    "PRE_PERSIST_SITES",
    "broken_recovery_skip_drain",
    "broken_recovery_skip_reset",
]

# Sites hit strictly before any device-visible mutation of the op that
# reaches them first: a crash there must leave the in-flight op invisible.
PRE_PERSIST_SITES = frozenset({
    "ctl.put.redirect",
    "ctl.put.normal",
    "ctl.delete.redirect",
    "ctl.delete.normal",
    "db.write.gate",
    "wal.append",
})


def _pre_persist(site: str) -> bool:
    return site in PRE_PERSIST_SITES or site.endswith(".submit")


@dataclass
class CrashReport:
    """Outcome of one crash-at-site run."""

    site: str
    occurrence: int
    crashed: bool
    violations: list = field(default_factory=list)
    recovery: Optional[object] = None      # RollbackRecord when crashed
    sim_time: float = 0.0
    seed: int = DEFAULT_SEED
    error: Optional[str] = None
    # Last N spans/instants before the crash (ring-buffered), when the
    # harness was built with ``trace_tail > 0``.  Each item is a dict:
    # {"cat", "name", "actor", "t0", "t1"|None, "args"}.
    trace_tail: list = field(default_factory=list)
    # Last N journal records before the crash (flight-recorder ring), when
    # built with ``journal_tail > 0``.  Each item is a record dict:
    # {"kind", "idx", "t", "proc"|"layer", "class"|"site"|"digest"}.
    journal_tail: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations

    def describe(self) -> str:
        status = ("no-crash" if not self.crashed
                  else "ok" if self.ok else "FAIL")
        extra = ""
        if self.violations:
            extra = " " + "; ".join(v.describe() for v in self.violations[:3])
        if self.error:
            extra += f" error={self.error}"
        return (f"[{status}] {self.site}#{self.occurrence} "
                f"(seed={self.seed:#x}){extra}")


@dataclass
class _Run:
    env: Environment
    registry: FaultRegistry
    db: KvaccelDb
    client: OracleClient


# -- deliberately broken recovery variants (harness self-tests) -----------
def broken_recovery_skip_drain(db: KvaccelDb) -> Generator:
    """A recovery that forgets to drain the Dev-LSM back into Main-LSM:
    it resets the device buffer without merging.  Every acked redirected
    write still parked in the Dev-LSM is silently lost — the harness must
    flag this as a durability violation."""
    db.controller.metadata.clear()
    yield from db.controller.kv.reset()
    return None


def broken_recovery_skip_reset(db: KvaccelDb) -> Generator:
    """A recovery that merges but forgets step 8 (Dev-LSM reset): the
    two LSMs' metadata disagree afterwards — Dev-LSM still holds entries
    while the rebuilt metadata table says it holds none."""
    controller = db.controller
    controller.metadata.clear()
    scanned = yield from controller.kv.bulk_scan()
    merge = []
    for e in iter_rows(scanned):
        current = yield from controller.main.get_internal(e[0])
        if current is None or e[1] > current[1]:
            merge.append(e)
    if merge:
        yield from controller.main.write_entries(merge)
    controller.metadata.clear()
    return None


class KvaccelFaultHarness:
    """Builds fresh seeded systems and runs trace / crash-at-site passes."""

    def __init__(self, seed: int = DEFAULT_SEED, scale: int = 1,
                 recovery: Optional[Callable[[KvaccelDb], Generator]] = None,
                 trace_tail: int = 0, resilience: bool = False,
                 journal_tail: int = 0):
        if scale < 1:
            raise ValueError("scale must be >= 1")
        if trace_tail < 0:
            raise ValueError("trace_tail must be >= 0")
        if journal_tail < 0:
            raise ValueError("journal_tail must be >= 0")
        self.seed = seed
        self.scale = scale
        self.trace_tail = trace_tail   # ring-buffer span tail per crash run
        self.journal_tail = journal_tail   # flight-recorder ring per run
        self._recovery = recovery   # None = the real db.recover()
        # With resilience on, the stack runs the repro.resil layer and the
        # workload gains two phases: a forced degraded episode (DEGRADED ->
        # drain -> RECOVERING -> HEALTHY) and a Main-LSM background-error /
        # resume() episode — exposing the state-machine sites to the crash
        # sweep.  Off (the default) keeps the trace byte-identical to
        # previous sweeps.
        self.resilience = resilience

    # -- system construction ----------------------------------------------
    def _build(self, record_trace: bool = False) -> _Run:
        env = Environment()
        registry = FaultRegistry(self.seed).install(env)
        registry.record_trace = record_trace
        if self.trace_tail > 0:
            # Ring-buffered: keeps only the last N records, so the sweep's
            # memory stays bounded while every crash report carries the
            # spans leading up to its injected fault.
            Tracer(max_events=self.trace_tail).install(env)
        if self.journal_tail > 0:
            # Flight-recorder ring: the crash report carries the last N
            # executed events / site visits leading up to the fault.
            Journal(ring=self.journal_tail).install(env)
        db = scripted_stack(
            env, resilience=SMALL_RESILIENCE if self.resilience else None)
        return _Run(env, registry, db, OracleClient(db, seed=self.seed))

    # -- the scripted workload ----------------------------------------------
    @staticmethod
    def _value(phase: bytes, i: int) -> bytes:
        return (b"%s:%06d;" % (phase, i)) * 40    # ~400 B per value

    def _workload(self, run: _Run) -> Generator:
        """Deterministic mixed workload touching every layer's sites."""
        s = self.scale
        db = run.db
        put, delete = run.client.put, run.client.delete
        get, scan = run.client.get, run.client.scan
        # Phase 1 — normal writes: flushes, WAL groups, compactions.
        for i in range(120 * s):
            yield from put(encode_key(i % 48), self._value(b"a", i))
        for k in (3, 9, 15):
            yield from delete(encode_key(k))
        for k in (0, 7, 21, 35, 47, 3):
            yield from get(encode_key(k))
        yield from scan(encode_key(10), 8)

        # Phase 2 — forced stall window: redirected writes + Dev-LSM reads.
        db.detector.stall_condition = True
        for i in range(40 * s):
            yield from put(encode_key(20 + (i % 30)), self._value(b"b", i))
        for k in (22, 31):
            yield from delete(encode_key(k))
        for k in (20, 25, 31, 49):
            yield from get(encode_key(k))

        # Phase 3 — stall clears; scripted rollback drains the Dev-LSM.
        db.detector.stall_condition = False
        yield from db.rollback_manager.rollback_once()
        for k in (20, 31, 45):
            yield from get(encode_key(k))

        # Phase 4 — post-rollback writes land normally again.
        for i in range(30 * s):
            yield from put(encode_key(30 + (i % 25)), self._value(b"c", i))
        yield from scan(encode_key(0), 16)
        for k in (30, 40, 54):
            yield from get(encode_key(k))

        if db.resil is None:
            return

        # Phase 5 — forced degraded episode: admission to the Dev-LSM is
        # suspended, writes land on Main-LSM despite the stall, a drain
        # moves DEGRADED -> RECOVERING and redirected probes close the
        # loop back to HEALTHY.
        db.detector.stall_condition = True
        for i in range(10 * s):    # a few redirected writes to strand
            yield from put(encode_key(60 + (i % 10)), self._value(b"d", i))
        db.resil.force_degrade()
        for i in range(10 * s):    # degraded: Main-LSM despite the stall
            yield from put(encode_key(70 + (i % 10)), self._value(b"e", i))
        yield from db.rollback_manager.rollback_once()   # drain -> RECOVERING
        for i in range(10 * s):    # redirected probes -> HEALTHY
            yield from put(encode_key(60 + (i % 10)), self._value(b"f", i))
        db.detector.stall_condition = False
        yield from db.rollback_manager.rollback_once()
        for k in (60, 65, 70, 75):
            yield from get(encode_key(k))

        # Phase 6 — Main-LSM background error: writes are refused while the
        # DB is read-only, then resume() clears the latch.
        db.main.set_background_error(DeviceError(
            TRANSIENT, site="wal.sync", detail="scripted background error"))
        for i in range(3):
            try:
                yield from put(encode_key(80 + i), self._value(b"g", i))
            except DeviceError:
                pass   # refused at the gate: the client aborted it
        db.main.resume()
        for i in range(8 * s):
            yield from put(encode_key(80 + (i % 8)), self._value(b"h", i))
        for k in (80, 84):
            yield from get(encode_key(k))

    def _driver(self, run: _Run) -> Generator:
        try:
            yield from self._workload(run)
        except Interrupt:
            return   # crash: abandon the in-flight op mid-yield

    # -- passes --------------------------------------------------------------
    def trace(self) -> list[SiteHit]:
        """Fault-free pass recording the ordered site-hit trace."""
        run = self._build(record_trace=True)
        run.env.run(until=run.env.process(self._driver(run)))
        run.db.close()
        return run.registry.trace

    def run_clean(self) -> _Run:
        """Fault-free pass returning the full run (tests poke at it)."""
        run = self._build()
        run.env.run(until=run.env.process(self._driver(run)))
        return run

    def crash_at(self, site: str, occurrence: int = 1) -> CrashReport:
        """Re-run the workload, crash at the given site hit, recover, and
        check the oracle's crash-consistency invariants."""
        run = self._build()
        # Sites come from a recorded trace, so they are real by
        # construction — skip catalogue validation.
        crash_ev = arm_crash(run.registry, run.env, site,
                             NthOccurrencePlan(occurrence), validate=False)
        proc = run.env.process(self._driver(run))
        report = CrashReport(site=site, occurrence=occurrence,
                             crashed=False, seed=self.seed)
        try:
            run.env.run(until=run.env.any_of([proc, crash_ev]))
            if run.registry.crashed_at is None:
                # Workload finished without reaching the armed hit.
                run.db.close()
                report.sim_time = run.env.now
                return report
            report.crashed = True
            if abandon_inflight(proc):
                run.env.run(until=proc)
            run.registry.clear_arms()
            if run.env.tracer is not None:
                # Snapshot the span tail before recovery adds its own
                # records.  Open spans (the abandoned in-flight op, plus
                # background flush/compaction still running) appear with
                # t1=None — they are not closed here because surviving
                # processes will end theirs normally during recovery.
                report.trace_tail = run.env.tracer.tail(self.trace_tail)
            if run.env.journal is not None:
                # Same snapshot point as the trace tail: the records
                # leading up to the crash, before recovery appends more.
                report.journal_tail = run.env.journal.tail()

            # -- recovery ------------------------------------------------
            recovery = self._recovery or (lambda db: db.recover())
            report.recovery = run.env.run(
                until=run.env.process(recovery(run.db)))
            run.env.run(until=run.env.process(run.db.wait_for_quiesce()))

            # -- invariants ------------------------------------------------
            violations: list[Violation] = run.env.run(
                until=run.env.process(run.client.oracle.verify(
                    run.db, allow_inflight=not _pre_persist(site))))
            # Dev-LSM and Main-LSM metadata must agree post-recovery: the
            # rebuilt (empty) table says no key is device-resident, so the
            # Dev-LSM must be empty too.
            if len(run.db.metadata) != 0 or not run.db.ssd.kv.is_empty:
                violations.append(Violation(
                    key=b"", got=None, allowed=(),
                    kind="metadata-disagreement"))
            report.violations = violations
            report.sim_time = run.env.now
            if violations:
                # Oracle mismatch: emit a divergence artifact (report +
                # the flight-recorder ring, when enabled) so the failing
                # site points straight at the evidence.  No-op unless
                # REPRO_DIVERGENCE_DIR is set.
                safe = site.replace(".", "_")
                write_divergence_artifact(
                    f"oracle_{safe}_{occurrence}",
                    {"divergent": True,
                     "violations": [v.describe() for v in violations],
                     "journal_tail": report.journal_tail},
                    journal=run.env.journal,
                    meta={"site": site, "occurrence": occurrence,
                          "seed": self.seed, "sim_time": run.env.now})
        except AssertionError as exc:
            report.error = f"assertion: {exc}"
        except Exception as exc:   # surface per-run, keep the sweep going
            report.error = f"{type(exc).__name__}: {exc}"
        finally:
            run.db.close()
        return report
