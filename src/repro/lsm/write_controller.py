"""RocksDB-style write controller: stop, delay, and token-bucket throttling.

This is the machinery the paper's Section III-A dissects.  Three stall
classes (SILK/ADOC taxonomy):

1. memtable — all write buffers full (flush can't keep up);
2. L0 — file count at the stop trigger (L0->L1 compaction serialized);
3. pending compaction bytes — backlog above the hard limit.

The *slowdown* mechanism anticipates these: when the softer thresholds
(slowdown trigger / soft limit / buffers nearly full) are crossed, writes
are throttled to ``delayed_write_rate`` via 1 ms write-thread naps.  With
``slowdown_enabled=False`` the DB runs at full speed until it slams into a
hard stop — exactly the Fig 2 (a)/(b) vs (c)/(d) comparison.

The controller also keeps the stall/slowdown books the experiments read:
stall intervals (for the PCIe-during-stall CDF), slowdown event counts
(Fig 3's 258 / 433), and cumulative stalled/delayed time.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..sim import Environment, Event
from .options import LsmOptions

__all__ = ["WriteController", "WriteState", "StallReason"]


class WriteState:
    NORMAL = "normal"
    DELAYED = "delayed"
    STOPPED = "stopped"


class StallReason:
    NONE = "none"
    MEMTABLE = "memtable"
    L0 = "l0"
    PENDING_BYTES = "pending_bytes"


class WriteController:
    """Gates the write path according to LSM back-pressure."""

    def __init__(self, env: Environment, options: LsmOptions,
                 stats_fn: Callable[[], tuple[int, int, int, bool]]):
        """``stats_fn`` returns (immutable_memtables, l0_files,
        pending_bytes, active_memtable_full)."""
        self.env = env
        self.options = options
        self.stats_fn = stats_fn

        self.state = WriteState.NORMAL
        self.reason = StallReason.NONE
        self._clear_event: Optional[Event] = None
        self._next_allowed = 0.0   # token bucket cursor for delayed writes
        # Adaptive delayed-write rate (RocksDB WriteController): starts at
        # options.delayed_write_rate on entering DELAYED, then multiplies
        # down while the backlog worsens and up while it drains.  The
        # observable floor (paper Fig 2: "up to 2 Kops/s") is the min rate.
        self.current_delay_rate = options.delayed_write_rate
        self.min_delay_rate = options.delayed_write_rate / 2
        self.max_delay_rate = options.delayed_write_rate * 16
        self._last_backlog: Optional[tuple] = None

        # books
        self.stall_intervals: list[tuple[float, float]] = []
        self._stall_start: Optional[float] = None
        self.slowdown_events = 0
        self.stall_events = 0
        self.total_stall_time = 0.0
        self.total_delayed_time = 0.0
        # per-StallReason books (RunResult.stall_breakdown)
        self.stall_reason_counts: dict[str, int] = {}
        self.stall_reason_time: dict[str, float] = {}
        self.slowdown_reason_counts: dict[str, int] = {}
        self.delayed_reason_time: dict[str, float] = {}
        self._stall_reason: Optional[str] = None    # reason latched at entry
        self._stall_span = None                     # open obs span, if traced

        tel = env.telemetry
        if tel is not None:
            # wc.state gauge: 0=normal, 1=delayed, 2=stopped (the encoding
            # repro.obs.rules reads); stall/delayed time as per-bucket
            # deltas, counting an in-progress stall up to "now" so a
            # bucket-spanning stall shows in every bucket it covers.
            codes = {WriteState.NORMAL: 0.0, WriteState.DELAYED: 1.0,
                     WriteState.STOPPED: 2.0}
            tel.gauge("wc.state", lambda: codes[self.state])
            tel.deriv("wc.stall_time", lambda: self.total_stall_time + (
                (self.env.now - self._stall_start)
                if self._stall_start is not None else 0.0))
            tel.deriv("wc.delayed_time", lambda: self.total_delayed_time)
            tel.gauge("wc.delay_rate", lambda: self.current_delay_rate)
            tel.rate("wc.stalls")
            tel.rate("wc.slowdowns")

    # -- state machine -----------------------------------------------------
    def _conditions(self, stats: tuple) -> tuple[str, str]:
        imm, l0, pending, mem_full = stats
        opt = self.options
        # RocksDB semantics: with N write buffers, one stays active and the
        # writer keeps filling it while up to N-1 immutables flush in the
        # background.  Writes stop only when the active buffer is full AND
        # the immutable backlog is at its limit (flush can't keep up).
        if mem_full and imm >= max(1, opt.max_write_buffer_number - 1):
            return WriteState.STOPPED, StallReason.MEMTABLE
        if l0 >= opt.level0_stop_writes_trigger:
            return WriteState.STOPPED, StallReason.L0
        if pending >= opt.hard_pending_compaction_bytes_limit:
            return WriteState.STOPPED, StallReason.PENDING_BYTES
        if l0 >= opt.level0_slowdown_writes_trigger:
            return WriteState.DELAYED, StallReason.L0
        if pending >= opt.soft_pending_compaction_bytes_limit:
            return WriteState.DELAYED, StallReason.PENDING_BYTES
        return WriteState.NORMAL, StallReason.NONE

    def _adapt_delay_rate(self, stats: tuple) -> None:
        """Multiplicative rate control while DELAYED (RocksDB-style).

        Deliberately asymmetric: the rate backs off fast while the backlog
        worsens (x0.71, RocksDB's kIncSlowdownRatio inverse) and recovers
        slowly (x1.05) — RocksDB keeps throttling hard until the stall
        condition actually clears, which is why the paper observes long
        windows pinned near the 2 Kops/s floor (Fig 2 c/d).
        """
        _imm, l0, pending, _full = stats
        backlog = (l0, pending)
        if self._last_backlog is not None:
            old_rate = self.current_delay_rate
            if backlog > self._last_backlog:
                self.current_delay_rate = max(self.min_delay_rate,
                                              self.current_delay_rate * 0.71)
            elif backlog < self._last_backlog:
                self.current_delay_rate = min(self.max_delay_rate,
                                              self.current_delay_rate * 1.05)
            if self.current_delay_rate != old_rate:
                self.env.probes.instant(
                    "stall", "slowdown.rate", "write_controller",
                    {"rate": self.current_delay_rate, "reason": self.reason})
        self._last_backlog = backlog

    def refresh(self) -> None:
        """Re-evaluate conditions; called after any LSM state change."""
        stats = self.stats_fn()   # evaluated once per refresh
        new_state, new_reason = self._conditions(stats)
        old_state = self.state
        if new_state == old_state:
            self.reason = new_reason
            if new_state == WriteState.DELAYED:
                self._adapt_delay_rate(stats)
            return
        now = self.env.now
        p = self.env.probes
        # leaving STOPPED
        if old_state == WriteState.STOPPED:
            if self._stall_start is not None:
                self.stall_intervals.append((self._stall_start, now))
                self.total_stall_time += now - self._stall_start
                if self._stall_reason is not None:
                    self.stall_reason_time[self._stall_reason] = (
                        self.stall_reason_time.get(self._stall_reason, 0.0)
                        + now - self._stall_start)
                self._stall_start = None
            ended_reason, self._stall_reason = self._stall_reason, None
            p.end(self._stall_span)
            self._stall_span = None
            p.instant("stall", "stall.exit", "write_controller",
                      {"reason": ended_reason})
            ev, self._clear_event = self._clear_event, None
            if ev is not None:
                ev.succeed()
        # entering STOPPED
        if new_state == WriteState.STOPPED:
            self._stall_start = now
            self.stall_events += 1
            p.add("wc.stalls")
            self._stall_reason = new_reason
            self.stall_reason_counts[new_reason] = (
                self.stall_reason_counts.get(new_reason, 0) + 1)
            self._clear_event = self.env.event()
            imm, l0, pending, _full = stats
            pressure = {"reason": new_reason, "l0": l0, "imm": imm,
                        "pending_bytes": pending}
            p.instant("stall", "stall.enter", "write_controller", pressure)
            self._stall_span = p.begin("stall", f"stall.{new_reason}",
                                       "write_controller", pressure)
        # entering DELAYED from any other state counts one slowdown instance
        if new_state == WriteState.DELAYED and self.options.slowdown_enabled:
            self.slowdown_events += 1
            p.add("wc.slowdowns")
            self.slowdown_reason_counts[new_reason] = (
                self.slowdown_reason_counts.get(new_reason, 0) + 1)
            self.current_delay_rate = self.options.delayed_write_rate
            self._last_backlog = None
            p.instant("stall", "slowdown.enter", "write_controller",
                      {"reason": new_reason, "rate": self.current_delay_rate})
        self.state = new_state
        self.reason = new_reason

    # -- the gate ---------------------------------------------------------
    def gate(self, nbytes: int) -> Generator:
        """Block the writer according to the current state.

        Returns the seconds this write was held (stall + delay), so the
        caller can fold it into per-op latency.
        """
        held = 0.0
        opt = self.options
        p = self.env.probes
        while True:
            self.refresh()
            if self.state == WriteState.STOPPED:
                t0 = self.env.now
                assert self._clear_event is not None
                p.enter("stall")
                try:
                    yield self._clear_event
                finally:
                    p.leave()
                held += self.env.now - t0
                continue  # conditions may have re-degraded
            if self.state == WriteState.DELAYED and opt.slowdown_enabled:
                now = self.env.now
                reason = self.reason
                self._next_allowed = max(self._next_allowed, now)
                wait = self._next_allowed - now
                self._next_allowed += nbytes / self.current_delay_rate
                if wait > 0:
                    # nap in slowdown_sleep quanta like RocksDB's 1 ms sleeps
                    t0 = now
                    remaining = wait
                    p.enter("slowdown")
                    try:
                        while remaining > 0:
                            nap = min(opt.slowdown_sleep, remaining)
                            yield self.env.timeout(nap)
                            remaining -= nap
                    finally:
                        p.leave()
                    dt = self.env.now - t0
                    held += dt
                    self.total_delayed_time += dt
                    self.delayed_reason_time[reason] = (
                        self.delayed_reason_time.get(reason, 0.0) + dt)
            return held

    # -- queries -------------------------------------------------------------
    @property
    def is_stall_condition(self) -> bool:
        """True when slowdown-level pressure exists (the Detector's signal)."""
        return self.state != WriteState.NORMAL

    def breakdown(self) -> dict:
        """Per-StallReason accounting (RunResult.stall_breakdown)."""
        return {
            "stalls": dict(self.stall_reason_counts),
            "stall_time": dict(self.stall_reason_time),
            "slowdowns": dict(self.slowdown_reason_counts),
            "delayed_time": dict(self.delayed_reason_time),
        }

    def finalize(self) -> None:
        """Close an open stall interval at end of run (for reporting)."""
        if self._stall_start is not None:
            now = self.env.now
            self.stall_intervals.append((self._stall_start, now))
            self.total_stall_time += now - self._stall_start
            if self._stall_reason is not None:
                self.stall_reason_time[self._stall_reason] = (
                    self.stall_reason_time.get(self._stall_reason, 0.0)
                    + now - self._stall_start)
            self._stall_start = now
        self.env.probes.end(self._stall_span)
        self._stall_span = None
