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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..resil.errors import DeviceError
from ..sim import Environment, Interrupt
from .controller import KvaccelController
from .detector import WriteStallDetector

__all__ = ["RollbackManager", "RollbackConfig", "RollbackRecord"]

SCHEMES = ("eager", "lazy", "disabled")


@dataclass
class RollbackConfig:
    scheme: str = "eager"
    period: float = 0.1            # check cadence (same thread family as detector)
    quiet_window: float = 0.5      # lazy: require this long with no writes
    merge_batch: int = 256         # entries per Main-LSM write batch

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.period <= 0 or self.quiet_window < 0 or self.merge_batch < 1:
            raise ValueError("invalid rollback configuration")


@dataclass
class RollbackRecord:
    start: float
    end: float
    entries: int
    bytes: int


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
        self.in_progress = False
        self._stopped = False
        self.process = env.process(self._run(), name="kvaccel-rollback")
        tel = env.telemetry
        if tel is not None:
            tel.gauge("rollback.active",
                      lambda: 1.0 if self.in_progress else 0.0)
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
        if (proc.is_alive and not self.in_progress
                and proc._target is not None
                and proc is not self.env.active_process):
            proc.interrupt("stopped")

    # -- scheduling policy ------------------------------------------------
    def _should_rollback(self) -> bool:
        if self.in_progress or self.controller.kv.is_empty:
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
            quiet = self.env.now - self.controller.last_write_time
            return quiet >= self.config.quiet_window
        return False  # disabled

    def _run(self):
        try:
            while not self._stopped:
                yield self.env.timeout(self.config.period)
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
    def rollback_once(self) -> Generator:
        """One full rollback: bulk scan -> merge -> clear metadata -> reset.

        While a rollback runs, the controller stops redirecting (writes go
        to Main-LSM, gated normally), so the Dev-LSM reset at step 8 cannot
        drop late-arriving entries.  Entries whose key is no longer in the
        metadata table are *stale* — a newer copy already landed in
        Main-LSM via write-path step 3-1 — and are skipped, otherwise an
        old value could shadow a newer, already-flushed one.
        """
        self.in_progress = True
        self.controller.rollback_in_progress = True
        p = self.env.probes
        _sp = p.begin("rollback", f"rollback.{self.config.scheme}", None,
                      {"scheme": self.config.scheme})
        try:
            t0 = self.env.now
            controller = self.controller
            yield from p.at("rollback.start")
            live_keys = controller.metadata.keys_snapshot()
            entries = yield from controller.kv.bulk_scan()
            entries = [e for e in entries if e[0] in live_keys]
            p.touch("rollback.scan.done")
            nbytes = 0
            batch = self.config.merge_batch
            for i in range(0, len(entries), batch):
                chunk = entries[i:i + batch]
                chunk_bytes = yield from controller.main.write_entries(chunk)
                nbytes += chunk_bytes
                # Per-batch so progress lands in the bucket it happened
                # in — the rollback-convergence rule watches this.
                p.add("rollback.entries", len(chunk))
                p.add("rollback.bytes", chunk_bytes)
                p.touch("rollback.merge.batch")
            controller.metadata.clear()
            p.touch("rollback.metadata.cleared")
            yield from controller.kv.reset()
            p.touch("rollback.complete")
            if self.resil is not None:
                self.resil.note_drained()
            self.records.append(RollbackRecord(
                start=t0, end=self.env.now, entries=len(entries), bytes=nbytes))
            p.end(_sp, {"entries": len(entries), "bytes": nbytes})
        finally:
            # Aborted mid-flight (e.g. injected crash): the span is still
            # open.  A rollback still running at the horizon is closed by
            # the tracer's end-of-run sweep first and reaches here only at
            # generator teardown.
            if _sp is not None and not _sp.closed:
                p.end(_sp, {"aborted": True})
            self.in_progress = False
            self.controller.rollback_in_progress = False

    # -- stats --------------------------------------------------------------
    @property
    def rollback_count(self) -> int:
        return len(self.records)

    @property
    def total_entries_rolled_back(self) -> int:
        return sum(r.entries for r in self.records)

