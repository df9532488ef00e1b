"""Deterministic sim-clock retry/backoff around device command issue.

A :class:`RetryExecutor` wraps a command generator (a `kv_dev`/`block_dev`
verb body) and re-issues it on *retryable* :class:`DeviceError`s —
transient errors and command timeouts — with exponential backoff plus
jitter.  Everything is driven by the simulation:

* backoff sleeps are ``env.timeout`` events, never wall clock;
* jitter comes from a private ``random.Random`` seeded from the fault
  seed (``REPRO_FAULT_SEED`` / registry seed), so the full retry
  schedule is bit-deterministic for a given seed;
* the optional per-attempt command timeout races the in-flight command
  process against an ``env.timeout`` via ``AnyOf`` and cancels the loser
  with ``Process.interrupt`` — the interaction the DES kernel's
  interrupt fast paths must survive (covered by tests/resil).

Retried commands are re-executed whole (at-least-once semantics); the
device verbs are idempotent under same-sequence-number replay, which is
what makes this safe.

Non-retryable errors (persistent / media), exhausted attempts, and
blown deadlines surface as the classifying :class:`DeviceError` for the
degradation state machine upstream.  Exceptions that are neither
DeviceErrors nor injected faults — i.e. real bugs — propagate untouched:
retrying those would mask them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from ..faults.registry import fault_seed
from ..sim import Environment, Interrupt
from .errors import DeviceError, TIMEOUT, as_device_error

__all__ = ["RetryPolicy", "RetryStats", "RetryExecutor", "backoff_schedule"]


@dataclass(frozen=True)
class RetryPolicy:
    """Shape of the retry schedule.

    Delays are simulated seconds.  ``deadline`` bounds the whole call
    (first attempt through last retry) relative to when it started;
    ``command_timeout`` bounds each individual attempt.  Either may be
    None (unbounded).
    """

    max_attempts: int = 4
    base_delay: float = 1e-4
    max_delay: float = 1e-2
    multiplier: float = 2.0
    jitter: float = 0.5          # fraction of the nominal delay, +/-
    deadline: Optional[float] = None
    command_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        for name in ("deadline", "command_timeout"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive or None")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before the retry following failed attempt ``attempt``
        (1-based).  Exponential with a +/- ``jitter`` fraction drawn from
        ``rng`` — exactly one ``rng.random()`` per call, which is what
        makes the schedule reproducible from the seed alone."""
        nominal = min(self.max_delay,
                      self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter == 0.0:
            return nominal
        span = nominal * self.jitter
        return nominal - span + 2.0 * span * rng.random()


def backoff_schedule(policy: RetryPolicy, seed: int,
                     n: Optional[int] = None) -> list[float]:
    """The full backoff schedule a fresh executor with ``seed`` would
    produce — the reference the determinism property tests pin against."""
    rng = random.Random(_derive(seed, "retry"))
    count = policy.max_attempts - 1 if n is None else n
    return [policy.backoff(a, rng) for a in range(1, count + 1)]


@dataclass
class RetryStats:
    """Counters across every call routed through one executor."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    errors: int = 0              # DeviceErrors observed (any kind)
    exhausted: int = 0           # gave up: attempt budget
    deadline_exceeded: int = 0   # gave up: deadline
    nonretryable: int = 0        # gave up: persistent/media
    by_kind: dict = field(default_factory=dict)

    def note(self, err: DeviceError) -> None:
        self.errors += 1
        self.by_kind[err.kind] = self.by_kind.get(err.kind, 0) + 1

    def as_dict(self) -> dict:
        return {
            "calls": self.calls, "attempts": self.attempts,
            "retries": self.retries, "timeouts": self.timeouts,
            "errors": self.errors, "exhausted": self.exhausted,
            "deadline_exceeded": self.deadline_exceeded,
            "nonretryable": self.nonretryable,
            "by_kind": dict(self.by_kind),
        }


def _derive(seed: int, name: str) -> str:
    """A stable per-executor RNG seed.  Strings seed ``random.Random``
    through SHA-512 (deterministic across processes, unlike ``hash``)."""
    return f"{seed}:{name}"


class RetryExecutor:
    """Runs command generators under a :class:`RetryPolicy`.

    One executor per device facade (``ssd.kv.retry``, ``ssd.block.retry``)
    so their jitter streams are independent but individually seeded.
    """

    def __init__(self, env: Environment, policy: Optional[RetryPolicy] = None,
                 seed: Optional[int] = None, name: str = "retry"):
        self.env = env
        self.policy = policy or RetryPolicy()
        self.name = name
        if seed is None:
            reg = getattr(env, "faults", None)
            seed = reg.seed if reg is not None else fault_seed()
        self.seed = seed
        self.rng = random.Random(_derive(self.seed, name))
        self.stats = RetryStats()

    def __repr__(self) -> str:
        return (f"RetryExecutor({self.name}, seed={self.seed:#x}, "
                f"calls={self.stats.calls}, retries={self.stats.retries})")

    # -- the wrapper ---------------------------------------------------------
    def call(self, factory: Callable[[], Generator], site: str = "") -> Generator:
        """``yield from executor.call(lambda: self._put(...), "kv.put")``.

        ``factory`` must build a *fresh* command generator per attempt —
        a generator can only run once.
        """
        env = self.env
        policy = self.policy
        start = env.now
        attempt = 0
        self.stats.calls += 1
        while True:
            attempt += 1
            self.stats.attempts += 1
            try:
                result = yield from self._attempt(factory, site)
            except BaseException as exc:
                err = as_device_error(exc, site)
                if err is None:
                    raise                      # a real bug, not a device status
                self.stats.note(err)
                p = env.probes
                p.add("resil.device_errors", 1.0)
                if not err.retryable:
                    self.stats.nonretryable += 1
                    raise err from None
                if attempt >= policy.max_attempts:
                    self.stats.exhausted += 1
                    raise err from None
                delay = policy.backoff(attempt, self.rng)
                if (policy.deadline is not None
                        and (env.now - start) + delay > policy.deadline):
                    self.stats.deadline_exceeded += 1
                    raise err from None
                self.stats.retries += 1
                p.add("resil.retries", 1.0)
                p.enter("retry")
                try:
                    yield env.timeout(delay)
                finally:
                    p.leave()
            else:
                return result

    def _attempt(self, factory: Callable[[], Generator], site: str) -> Generator:
        """One attempt, with the per-command timeout race when configured."""
        env = self.env
        timeout_s = self.policy.command_timeout
        if timeout_s is None:
            result = yield from factory()
            return result
        proc = env.process(factory(), name=f"cmd:{site or self.name}")
        # Race the command against the deadline.  If the command *fails*
        # first, AnyOf defuses it and re-raises here — the retry loop
        # classifies it.  If it succeeds first, return its value.
        yield env.any_of([proc, env.timeout(timeout_s)])
        if proc.processed:
            return proc.value
        # Deadline won.  Cancel the in-flight command; yielding the dying
        # process both consumes the Interrupt cleanly (the kernel defuses
        # a failure a process is waiting on) and covers the boundary case
        # where the command completes at the exact deadline timestamp —
        # then its real result is simply used.
        self.stats.timeouts += 1
        if proc.is_alive:
            proc.interrupt("command-timeout")
        try:
            value = yield proc
        except Interrupt:
            raise DeviceError(
                TIMEOUT, site=site,
                detail=f"no completion within {timeout_s:g}s") from None
        return value
