"""Write Stall Detector (paper Section V-C).

A detached thread that every 0.1 s inspects the three Main-LSM signals
associated with an (imminent) write stall:

1. number of SSTs in L0 (vs the slowdown trigger),
2. memtable state (immutable memtables backed up behind flush),
3. pending compaction bytes (vs the soft limit).

The verdict is latched into ``stall_condition`` for the Controller and the
Rollback Manager to read; the per-check cost (Table VI: 1.37 us) is charged
to the host CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lsm.db import DbImpl
from ..sim import Environment, Interrupt

__all__ = ["WriteStallDetector", "DetectorConfig"]

# Host CPU per check (s), Table VI.
CHECK_COST = 1.37e-6


@dataclass
class DetectorConfig:
    period: float = 0.1          # paper: refresh every 0.1 s


class WriteStallDetector:
    """Polls the Main-LSM and latches the stall verdict."""

    def __init__(self, env: Environment, db: DbImpl,
                 config: DetectorConfig | None = None):
        self.env = env
        self.db = db
        self.config = config or DetectorConfig()
        self.stall_condition = False
        self.checks = 0
        self.transitions = 0
        self.stall_condition_time = 0.0
        self._last_change = env.now
        self._stopped = False
        self.process = env.process(self._run(), name="kvaccel-detector")
        tel = env.telemetry
        if tel is not None:
            tel.gauge("detector.stall_condition",
                      lambda: 1.0 if self.stall_condition else 0.0)

    def evaluate(self) -> bool:
        """One synchronous check (also used by tests and the controller
        when it needs a fresh verdict at op time)."""
        opt = self.db.options
        imm = self.db.immutable_count
        l0 = self.db.l0_count
        pending = self.db.pending_compaction_bytes
        # Anticipatory: flush backlog at limit while the active memtable is
        # already half full means a memtable stall is imminent.
        memtable_pressure = (
            imm >= max(1, opt.max_write_buffer_number - 1)
            and self.db.memtable_bytes >= opt.write_buffer_size // 2
        )
        l0_pressure = l0 >= opt.level0_slowdown_writes_trigger
        debt_pressure = pending >= opt.soft_pending_compaction_bytes_limit
        return memtable_pressure or l0_pressure or debt_pressure

    def state_digest(self) -> dict:
        """Detector verdict + latch history for journal checkpoints."""
        return {
            "stall_condition": self.stall_condition,
            "checks": self.checks,
            "transitions": self.transitions,
            "stall_condition_time": self.stall_condition_time,
        }

    def stop(self) -> None:
        """Stop the detector thread.

        Interrupts the in-flight poll wait so the event queue drains right
        away — otherwise a closed system keeps ticking (and charging check
        CPU against a closed DB) until the simulation horizon.  Guarded for
        the cases ``interrupt`` cannot handle: a process that never started
        (``_target is None``) or stop() called from the detector itself.
        """
        self._stopped = True
        proc = self.process
        if (proc.is_alive and proc._target is not None
                and proc is not self.env.active_process):
            proc.interrupt("stopped")

    def _latch(self, verdict: bool) -> None:
        if verdict != self.stall_condition:
            self.transitions += 1
            if self.stall_condition:
                self.stall_condition_time += self.env.now - self._last_change
            self._last_change = self.env.now
            self.env.probes.instant("detector", "detector.verdict", "detector",
                                    {"stall_condition": verdict})
        self.stall_condition = verdict

    def _run(self):
        try:
            while not self._stopped:
                yield self.env.timeout(self.config.period)
                if self._stopped or self.db.closed:
                    return
                self.checks += 1
                self.db.host_cpu.charge(CHECK_COST, tag="detector")
                self._latch(self.evaluate())
        except Interrupt:
            return
