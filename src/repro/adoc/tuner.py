"""ADOC-style dataflow tuner (FAST '23), as characterized by the paper.

ADOC monitors dataflow between LSM components and, on overflow signals
(write slowdown conditions), *dynamically adjusts the write buffer size and
the number of background compaction threads*.  It still falls back to
RocksDB's slowdown as a last resort — the paper's Section III-A point.

The tuner is a background process: every ``interval`` seconds it inspects
the DB's write controller and either escalates (more compaction threads,
bigger memtable) under pressure or decays back toward the baseline after a
calm streak.  Escalation is the mechanism by which ADOC burns extra host
CPU (Fig 12(c): ADOC's efficiency is the worst of the three systems).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lsm.db import DbImpl
from ..lsm.write_controller import WriteState
from ..sim import Environment

__all__ = ["AdocTuner", "AdocTunerConfig", "TuningAction"]


# The write buffer can grow to this multiple of its baseline.
MAX_BUFFER_MULTIPLIER = 4
# Consecutive calm polls before the tuner steps down.
CALM_STEPS_TO_DECAY = 3
# Host CPU seconds charged per poll.
MONITOR_CPU_COST = 5e-6


@dataclass
class AdocTunerConfig:
    interval: float = 1.0            # tuning period (seconds)
    max_compaction_threads: int = 8


@dataclass
class TuningAction:
    time: float
    kind: str          # "escalate" | "decay"
    threads: int
    buffer_bytes: int


class AdocTuner:
    """Attaches to a DbImpl and tunes it live."""

    def __init__(self, env: Environment, db: DbImpl,
                 config: AdocTunerConfig | None = None):
        self.env = env
        self.db = db
        self.config = config or AdocTunerConfig()
        self.base_threads = db.options.max_background_compactions
        self.base_buffer = db.options.write_buffer_size
        self._calm_streak = 0
        self.actions: list[TuningAction] = []
        self._stopped = False
        self.process = env.process(self._run(), name="adoc-tuner")

    def stop(self) -> None:
        self._stopped = True

    # -- policy -------------------------------------------------------------
    def _pressure(self) -> bool:
        wc = self.db.write_controller
        wc.refresh()
        return wc.state != WriteState.NORMAL

    def _escalate(self) -> None:
        opt = self.db.options
        cfg = self.config
        changed = False
        if opt.max_background_compactions < cfg.max_compaction_threads:
            opt.max_background_compactions += 1
            changed = True
        cap = self.base_buffer * MAX_BUFFER_MULTIPLIER
        if opt.write_buffer_size < cap:
            opt.write_buffer_size = min(opt.write_buffer_size * 2, cap)
            changed = True
        if changed:
            self.db._wake_background()
            self.actions.append(TuningAction(
                self.env.now, "escalate",
                opt.max_background_compactions, opt.write_buffer_size))

    def _decay(self) -> None:
        opt = self.db.options
        changed = False
        if opt.max_background_compactions > self.base_threads:
            opt.max_background_compactions -= 1
            changed = True
        if opt.write_buffer_size > self.base_buffer:
            opt.write_buffer_size = max(opt.write_buffer_size // 2, self.base_buffer)
            changed = True
        if changed:
            self.actions.append(TuningAction(
                self.env.now, "decay",
                opt.max_background_compactions, opt.write_buffer_size))

    def _run(self):
        cfg = self.config
        while not self._stopped:
            yield self.env.timeout(cfg.interval)
            if self._stopped:
                return
            self.db.host_cpu.charge(MONITOR_CPU_COST, tag="adoc-tuner")
            if self._pressure():
                self._calm_streak = 0
                self._escalate()
            else:
                self._calm_streak += 1
                if self._calm_streak >= CALM_STEPS_TO_DECAY:
                    self._calm_streak = 0
                    self._decay()
