"""Injection registry: named fault points threaded through the stack.

Every durability-relevant step in the device and LSM layers visits a
stable site name — ``"nand.program"``, ``"wal.flush.start"``,
``"kv.put_batch.submit"``, ``"rollback.metadata.cleared"``... — through
``env.probes``: ``yield from p.at(site)`` in generator code, ``p.touch(site)``
in synchronous code.  Both verbs do nothing until a :class:`FaultRegistry`
(or the journal) is installed, so an uninstrumented simulation pays one
no-op call per visit.

``registry.install(env)`` binds the two verbs to :func:`fault_point` and
:func:`touch` below, and from then on each visit:

* counts the hit and (optionally) appends it to an ordered **trace** —
  the raw material of the crash-point scheduler;
* consults the armed ``(pattern, plan, action)`` triples and, when a plan
  fires, executes the action:

  - ``FAIL``       raise :class:`InjectedFault` at the site,
  - ``CRASH``      latch the crash point and succeed the registry's crash
                   event (the harness then interrupts the workload and
                   runs recovery),
  - ``DELAY``      stretch the op by ``action.delay`` simulated seconds,
  - ``DROP`` /
    ``DUPLICATE``  returned to the call site, which interprets them
                   (e.g. a lost or doubled NVMe-KV command).

Site naming convention: sites ending in ``.submit`` are hit *before* any
device-visible mutation of the op; a crash there must leave the op
invisible.  Other sites may be post-mutation, so the interrupted op's
value is allowed (but not required) to survive.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fnmatch import fnmatchcase
from functools import partial
from typing import Generator, Optional

from ..sim import Environment, Event
from .plan import FaultPlan

__all__ = [
    "FAIL",
    "CRASH",
    "DELAY",
    "DROP",
    "DUPLICATE",
    "FaultAction",
    "InjectedFault",
    "SiteHit",
    "FaultRegistry",
    "fault_seed",
    "fault_point",
    "touch",
]

FAIL = "fail"
CRASH = "crash"
DELAY = "delay"
DROP = "drop"
DUPLICATE = "duplicate"

_KINDS = (FAIL, CRASH, DELAY, DROP, DUPLICATE)

DEFAULT_SEED = 0xC0FFEE


def fault_seed(default: Optional[int] = None) -> int:
    """The fault/workload seed a run uses — the only reader of
    ``REPRO_FAULT_SEED``.

    An exported ``REPRO_FAULT_SEED`` (any int literal Python accepts, e.g.
    ``0x2A``) wins, then the caller's ``default``, then
    :data:`DEFAULT_SEED`, so a failure replays from the seed its message
    printed on every entry point alike.  A malformed value raises: running
    the default seed instead would quietly not be the run being replayed.
    """
    raw = os.environ.get("REPRO_FAULT_SEED")
    if raw:
        try:
            return int(raw, 0)
        except ValueError:
            raise ValueError(f"REPRO_FAULT_SEED={raw!r} is not an integer "
                             f"literal (e.g. 12648430 or 0xC0FFEE)") from None
    return DEFAULT_SEED if default is None else default


class InjectedFault(RuntimeError):
    """Raised at a fault site armed with a ``FAIL`` action.

    ``note`` carries :attr:`FaultAction.note` through to the handler —
    the resilience layer reads it as the device-error kind (see
    :func:`repro.resil.errors.classify_injected`).
    """

    def __init__(self, site: str, occurrence: int, note: str = ""):
        super().__init__(f"injected fault at {site} (occurrence {occurrence})")
        self.site = site
        self.occurrence = occurrence
        self.note = note


@dataclass
class FaultAction:
    """What happens when a plan fires at a site."""

    kind: str = FAIL
    delay: float = 0.0       # seconds, for DELAY
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")


@dataclass(frozen=True)
class SiteHit:
    """One traced visit of a fault site."""

    site: str
    occurrence: int      # 1-based per-site hit count
    time: float


@dataclass
class _Arm:
    pattern: str
    plan: FaultPlan
    action: FaultAction
    fired: int = 0


class FaultRegistry:
    """Holds armed faults, hit counters, the trace, and the crash latch."""

    def __init__(self, seed: int = DEFAULT_SEED):
        self.seed = seed
        self.rng = random.Random(seed)
        self.hits: dict[str, int] = {}
        self.record_trace = False
        self.trace: list[SiteHit] = []
        self.injected: list[tuple[str, int, str, float]] = []
        self.crash_event: Optional[Event] = None
        self.crashed_at: Optional[SiteHit] = None
        self._arms: list[_Arm] = []
        self._env: Optional[Environment] = None

    def __repr__(self) -> str:
        return (f"FaultRegistry(seed={self.seed:#x}, sites={len(self.hits)}, "
                f"arms={len(self._arms)}, injected={len(self.injected)})")

    # -- wiring ------------------------------------------------------------
    def install(self, env: Environment) -> "FaultRegistry":
        """Attach to an Environment and claim its site verbs.  The journal
        installs the same pair (each function serves either plane alone),
        so the two may be installed in either order."""
        env.faults = self
        self._env = env
        env.probes.touch = partial(touch, env)
        env.probes.at = partial(fault_point, env)
        return self

    # -- arming ------------------------------------------------------------
    def arm(self, pattern: str, plan: FaultPlan,
            action: Optional[FaultAction] = None,
            validate: bool = True) -> "FaultRegistry":
        """Arm ``plan``/``action`` on every site matching the glob
        ``pattern`` (exact names match themselves).

        Patterns are validated against the site catalogue
        (:mod:`repro.faults.sites`) — a typo'd site used to arm fine and
        then silently never fire.  ``validate=False`` opts out for sites
        outside the built-in stack (synthetic test probes, extensions).
        """
        if validate:
            from .sites import validate_pattern
            validate_pattern(pattern)
        self._arms.append(_Arm(pattern, plan, action or FaultAction()))
        return self

    def clear_arms(self) -> None:
        """Disarm everything (the scheduler does this after its crash fires
        so recovery-path sites cannot re-trigger the same plan)."""
        self._arms = []

    def new_crash_event(self, env: Environment) -> Event:
        """Fresh latch for one crash run; fires with the SiteHit."""
        self.crash_event = Event(env)
        self.crashed_at = None
        return self.crash_event

    # -- the probe ---------------------------------------------------------
    def reach(self, site: str, now: float) -> Optional[FaultAction]:
        """Record a visit of ``site``; return a fired action (or None).

        ``FAIL`` raises here; ``CRASH`` latches and triggers the crash
        event, then returns None so the visiting process proceeds to its
        next yield (where the harness interrupts it).  Other kinds are
        returned for the call site / wrapper to interpret.
        """
        n = self.hits.get(site, 0) + 1
        self.hits[site] = n
        if self.record_trace:
            self.trace.append(SiteHit(site, n, now))
        for arm in self._arms:
            if not fnmatchcase(site, arm.pattern):
                continue
            if not arm.plan.should_fire(n, now):
                continue
            arm.fired += 1
            self.injected.append((site, n, arm.action.kind, now))
            if arm.action.kind == CRASH:
                self.crashed_at = SiteHit(site, n, now)
                ev = self.crash_event
                if ev is not None and not ev.triggered:
                    ev.succeed(self.crashed_at)
                return None
            if arm.action.kind == FAIL:
                raise InjectedFault(site, n, note=arm.action.note)
            return arm.action
        return None


def fault_point(env: Environment, site: str) -> Generator:
    """Probe ``site`` from generator code (``env.probes.at`` once bound).

    Handles ``DELAY`` inline (stretches the op); returns the action for
    site-specific kinds (``DROP``/``DUPLICATE``) or None.  ``FAIL`` raises
    out of the site; ``CRASH`` latches and lets execution continue to the
    next yield.
    """
    action = touch(env, site)
    if action is not None and action.kind == DELAY and action.delay > 0:
        yield env.timeout(action.delay)
        return None
    return action


def touch(env: Environment, site: str) -> Optional[FaultAction]:
    """Probe ``site`` from synchronous code (``env.probes.touch`` once
    bound; cannot honor DELAY)."""
    jr = env.journal
    if jr is not None:
        # Before the registry guard: site records exist with or without a
        # FaultRegistry, so the bisector can name sites on clean runs too.
        proc = env._active_process
        jr.site(env._now, proc.name if proc is not None else "", site)
    reg = env.faults
    if reg is None:
        return None
    return reg.reach(site, env.now)
