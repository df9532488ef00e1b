"""Graceful degradation: HEALTHY -> DEGRADED -> RECOVERING -> HEALTHY.

The controller consults a :class:`DegradationManager` before admitting a
write to the Dev-LSM redirect path:

* **HEALTHY** — normal KVACCEL operation; redirect allowed.
* **DEGRADED** — the Dev-LSM device path is not trustworthy: admission is
  suspended, every write goes to the Main-LSM, and the rollback daemon is
  asked to drain whatever the Dev-LSM still holds (``wants_drain``).
  Entered when retryable-error handling gives up — ``degrade_error_threshold``
  device errors inside ``degrade_window`` simulated seconds — or on any
  error while RECOVERING (fast relapse, the hysteresis half of the
  machine).
* **RECOVERING** — the Dev-LSM is drained; redirects are allowed again as
  *probes*.  Only after ``recover_min_successes`` consecutive successful
  device commands **and** ``recover_probation`` seconds without an error
  does the machine declare HEALTHY.  A single error snaps straight back
  to DEGRADED.

State changes are visible three ways: fault sites (``resil.degraded.enter``
et al. — crash points for the sweep), the ``resil.state`` telemetry gauge
(which the ``degraded_mode_entered`` health rule watches), and the
``transitions`` list for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim import Environment
from .retry import RetryPolicy

__all__ = ["HEALTHY", "RECOVERING", "DEGRADED", "STATE_GAUGE",
           "ResilienceConfig", "DegradationManager"]

HEALTHY = "healthy"
RECOVERING = "recovering"
DEGRADED = "degraded"

# Encoding on the resil.state gauge channel (rules key off >= 2.0).
STATE_GAUGE = {HEALTHY: 0.0, RECOVERING: 1.0, DEGRADED: 2.0}


@dataclass(frozen=True)
class ResilienceConfig:
    """Profile-level knobs for the whole resilience stack."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    degrade_error_threshold: int = 3     # errors within the window -> DEGRADED
    degrade_window: float = 1.0          # seconds
    recover_probation: float = 0.5       # seconds error-free in RECOVERING
    recover_min_successes: int = 8       # successful probes in RECOVERING

    def __post_init__(self) -> None:
        if self.degrade_error_threshold < 1:
            raise ValueError("degrade_error_threshold must be >= 1")
        if self.degrade_window <= 0 or self.recover_probation < 0:
            raise ValueError("windows must be positive")
        if self.recover_min_successes < 1:
            raise ValueError("recover_min_successes must be >= 1")


class DegradationManager:
    """The per-system state machine instance."""

    def __init__(self, env: Environment,
                 config: Optional[ResilienceConfig] = None):
        self.env = env
        self.config = config or ResilienceConfig()
        self.state = HEALTHY
        self.transitions: list[tuple[float, str]] = []
        self.device_errors = 0
        self.fallback_writes = 0
        self._error_times: list[float] = []    # recent, within window
        self._recover_started = 0.0
        self._successes = 0
        tel = env.telemetry
        if tel is not None:
            tel.gauge("resil.state", lambda: STATE_GAUGE[self.state])

    def __repr__(self) -> str:
        return (f"DegradationManager({self.state}, errors={self.device_errors},"
                f" fallbacks={self.fallback_writes})")

    def state_digest(self) -> dict:
        """Degradation-machine state for journal digest checkpoints."""
        return {
            "state": self.state,
            "transitions": [[t, s] for t, s in self.transitions],
            "device_errors": self.device_errors,
            "fallback_writes": self.fallback_writes,
        }

    # -- queries the controller / rollback make ------------------------------
    def allows_redirect(self) -> bool:
        """May the controller admit this write to the Dev-LSM?"""
        return self.state != DEGRADED

    def wants_drain(self) -> bool:
        """Should the rollback daemon drain the Dev-LSM now, regardless of
        the configured rollback scheme and even during a stall?"""
        return self.state == DEGRADED

    # -- inputs --------------------------------------------------------------
    def record_error(self, err: Optional[BaseException] = None) -> None:
        """A device command failed for good (post-retry)."""
        self.device_errors += 1
        self.env.probes.add("resil.device_errors", 1.0)
        if self.state == DEGRADED:
            return
        if self.state == RECOVERING:
            # Hysteresis: any error during probation relapses immediately.
            self._enter(DEGRADED)
            return
        now = self.env.now
        horizon = now - self.config.degrade_window
        self._error_times = [t for t in self._error_times if t > horizon]
        self._error_times.append(now)
        if len(self._error_times) >= self.config.degrade_error_threshold:
            self._enter(DEGRADED)

    def record_success(self) -> None:
        """A device command on the redirect path completed cleanly."""
        if self.state != RECOVERING:
            return
        self._successes += 1
        if (self._successes >= self.config.recover_min_successes
                and self.env.now - self._recover_started
                >= self.config.recover_probation):
            self._enter(HEALTHY)

    def note_drained(self) -> None:
        """The rollback daemon finished draining the Dev-LSM."""
        if self.state == DEGRADED:
            self._enter(RECOVERING)

    def record_fallback(self) -> None:
        """A write intended for the Dev-LSM was served by the Main-LSM."""
        self.fallback_writes += 1
        self.env.probes.add("resil.fallback_writes", 1.0)

    def force_degrade(self) -> None:
        """Operator override / test hook: suspend Dev-LSM admission now."""
        if self.state != DEGRADED:
            self._enter(DEGRADED)

    def reset(self) -> None:
        """Post-crash-recovery: the machine restarts HEALTHY (the crash
        recovery path already reconciled the Dev-LSM)."""
        self.state = HEALTHY
        self._error_times = []
        self._successes = 0

    # -- internals -----------------------------------------------------------
    def _enter(self, state: str) -> None:
        self.state = state
        now = self.env.now
        self.transitions.append((now, state))
        if state == RECOVERING:
            self._recover_started = now
            self._successes = 0
        elif state == HEALTHY:
            self._error_times = []
        p = self.env.probes
        p.touch(f"resil.{state}.enter")
        p.instant("resil", f"state.{state}", "resil")
