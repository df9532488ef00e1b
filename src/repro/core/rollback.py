"""Rollback Manager (paper Section V-E).

Aggregates the two LSMs back into one: when the Detector reports no write
stall and the Dev-LSM holds cached pairs, the manager pulls everything back
with the iterator-based *bulky range scan* (512 KB DMA chunks), merges the
entries into Main-LSM preserving their original sequence numbers, clears
the metadata table, and resets the Dev-LSM (step 8) so the next stall
starts from a clean buffer.

Two scheduling schemes (paper):

* ``eager``  — roll back as soon as the stall clears; best for read-mixed
  workloads (Dev-LSM point reads are slow).
* ``lazy``   — wait for a quiet period (no writes for ``quiet_window``) so
  rollback I/O never competes with foreground writes; best for
  write-intensive workloads.
* ``disabled`` — never roll back during the run (the paper's write-only
  workload A configuration, where rollback happens after the workload).

Crash recovery (Section VI-D) is the same rollback after the volatile
metadata table was lost: ``rollback_once(after_crash=True)``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, count
from typing import Generator

from ..lsm.sstable import key_list, rows_at
from ..resil.errors import DeviceError
from ..sim import Environment, Interrupt
from .controller import KvaccelController
from .detector import WriteStallDetector

__all__ = ["RollbackManager", "RollbackConfig", "RollbackRecord"]

SCHEMES = ("eager", "lazy", "disabled")

# Entries per Main-LSM write batch when a rollback merges the Dev-LSM back.
MERGE_BATCH = 256


@dataclass
class RollbackConfig:
    scheme: str = "eager"
    quiet_window: float = 0.5      # lazy: require this long with no writes

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.quiet_window < 0:
            raise ValueError("invalid rollback configuration")


@dataclass
class RollbackRecord:
    start: float
    end: float
    entries: int
    bytes: int

    @property
    def elapsed(self) -> float:
        return self.end - self.start


class RollbackManager:
    """Schedules and executes rollback operations."""

    def __init__(self, env: Environment, controller: KvaccelController,
                 detector: WriteStallDetector,
                 config: RollbackConfig | None = None,
                 resil=None):
        self.env = env
        self.controller = controller
        self.detector = detector
        self.config = config or RollbackConfig()
        # Optional repro.resil.DegradationManager.  A DEGRADED system wants
        # its Dev-LSM drained back into Main-LSM regardless of scheme; a
        # completed drain moves the state machine to RECOVERING.
        self.resil = resil
        self.records: list[RollbackRecord] = []
        self._stopped = False
        self.process = env.process(self._run(), name="kvaccel-rollback")
        tel = env.telemetry
        if tel is not None:
            tel.gauge("rollback.active",
                      lambda: 1.0 if controller.rollback_in_progress else 0.0)
            tel.rate("rollback.entries")
            tel.rate("rollback.bytes")

    def stop(self) -> None:
        """Stop the scheduler thread.

        Interrupts the polling process so a closed system drains its event
        queue immediately instead of ticking until the caller's horizon.
        A rollback already in flight is left to finish (it holds the
        controller's redirection lock); only the idle wait is cancelled.
        """
        self._stopped = True
        proc = self.process
        if (proc.is_alive and not self.controller.rollback_in_progress
                and proc._target is not None
                and proc is not self.env.active_process):
            proc.interrupt("stopped")

    # -- scheduling policy ------------------------------------------------
    def _should_rollback(self) -> bool:
        controller = self.controller
        if controller.rollback_in_progress or controller.kv.is_empty:
            return False
        drain = self.resil is not None and self.resil.wants_drain()
        if self.detector.stall_condition and not drain:
            return False  # only between stalls (paper step 1-2)
        if drain:
            # DEGRADED: drain the Dev-LSM now, even under a stall and even
            # with scheme "disabled" — its contents must reach Main-LSM
            # before the faulty device interface degrades further.
            return True
        if self.config.scheme == "eager":
            return True
        if self.config.scheme == "lazy":
            quiet = self.env.now - controller.last_write_time
            return quiet >= self.config.quiet_window
        return False  # disabled

    def _run(self):
        try:
            while not self._stopped:
                yield self.env.timeout(self.detector.config.period)
                if self._stopped or self.controller.main.closed:
                    return
                if self._should_rollback():
                    if self.resil is None:
                        yield from self.rollback_once()
                    else:
                        try:
                            yield from self.rollback_once()
                        except DeviceError as exc:
                            # Scan/reset hit the faulty device; note the
                            # error and retry on the next period instead of
                            # killing the scheduler thread.
                            self.resil.record_error(exc)
                elif (self.resil is not None and self.resil.wants_drain()
                        and self.controller.kv.is_empty):
                    # Nothing to drain — the DEGRADED Dev-LSM is already
                    # empty; move straight to RECOVERING.
                    self.resil.note_drained()
        except Interrupt:
            return

    # -- the rollback operation ---------------------------------------------
    def rollback_once(self, after_crash: bool = False) -> Generator:
        """One full rollback: bulk scan -> merge -> clear metadata -> reset;
        returns its :class:`RollbackRecord`.

        While a rollback runs, the controller stops redirecting (writes go
        to Main-LSM, gated normally), and the scan waits until no
        redirected batch is between its metadata insert and its Dev-LSM
        ack, so the reset at step 8 cannot drop an acked write.  An entry
        whose key has left the metadata table is *stale* — a newer copy
        landed in Main-LSM via write-path step 3-1 — and is skipped.  The
        live table decides, where Main-LSM's memtable takes the entry: a
        normal write may land at any yield of the merge, and an older copy
        in a newer memtable would shadow it.

        ``after_crash`` is crash recovery (Section VI-D): the volatile
        table is lost, so it is first rebuilt from the scan, marking each
        key whose Dev-LSM copy is newer than Main-LSM's.  Recovery runs
        before the store takes writes again, as on reopen.
        """
        controller = self.controller
        metadata = controller.metadata
        controller.rollback_in_progress = True
        name = "recovery" if after_crash else self.config.scheme
        p = self.env.probes
        _sp = p.begin("rollback", f"rollback.{name}", None, {"scheme": name})
        try:
            t0 = self.env.now
            yield from p.at("rollback.start")
            yield from controller.redirects_acked()
            scanned = yield from controller.kv.bulk_scan()
            keys = key_list(scanned)
            if after_crash:
                metadata.clear()
                for key, seq in zip(keys, scanned[2]):
                    current = yield from controller.main.get_internal(key)
                    if current is None or seq > current[1]:
                        metadata.insert(key)
            # The rows still marked; entry tuples are built for them only,
            # one merge batch at a time.
            live = array("q", compress(count(), map(metadata.__contains__,
                                                    keys)))
            p.touch("rollback.scan.done")
            nbytes = 0
            for i in range(0, len(live), MERGE_BATCH):
                chunk = rows_at(scanned, live[i:i + MERGE_BATCH])
                chunk_bytes = yield from controller.main.write_entries(
                    chunk, keep=metadata.__contains__)
                nbytes += chunk_bytes
                # Per-batch so progress lands in the bucket it happened
                # in — the rollback-convergence rule watches this.
                p.add("rollback.entries", len(chunk))
                p.add("rollback.bytes", chunk_bytes)
                p.touch("rollback.merge.batch")
            metadata.clear()
            p.touch("rollback.metadata.cleared")
            yield from controller.kv.reset()
            p.touch("rollback.complete")
            if self.resil is not None:
                self.resil.note_drained()
            record = RollbackRecord(start=t0, end=self.env.now,
                                    entries=len(live), bytes=nbytes)
            self.records.append(record)
            p.end(_sp, {"entries": len(live), "bytes": nbytes})
            return record
        finally:
            # Aborted mid-flight (e.g. injected crash): the span is still
            # open.  A rollback still running at the horizon is closed by
            # the tracer's end-of-run sweep first and reaches here only at
            # generator teardown.
            if _sp is not None and not _sp.closed:
                p.end(_sp, {"aborted": True})
            controller.rollback_in_progress = False

    # -- stats --------------------------------------------------------------
    @property
    def rollback_count(self) -> int:
        return len(self.records)
