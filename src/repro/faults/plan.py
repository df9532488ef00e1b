"""Fault plans: *when* an armed fault fires.

A plan is a small stateful policy consulted every time simulation code
reaches the fault site it is armed on.  Separating "when" (the plan) from
"what" (the :class:`~repro.faults.registry.FaultAction`) and "where" (the
site name) lets one registry express NAND glitches (probabilistic), a
crash-point schedule (nth-occurrence) and a persistent fault (always)
with the same machinery.

Plans are stateful and single-use: arm a fresh instance per run.  All
randomness flows through an explicit ``random.Random`` so a printed seed
reproduces a failing schedule exactly.
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = [
    "FaultPlan",
    "AlwaysPlan",
    "NthOccurrencePlan",
    "ProbabilisticPlan",
]


class FaultPlan:
    """Decides, per site hit, whether the armed fault fires."""

    def should_fire(self, occurrence: int, now: float) -> bool:
        """``occurrence`` is the 1-based hit count of the site; ``now`` is
        simulated time."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class AlwaysPlan(FaultPlan):
    """Fires on every hit."""

    def should_fire(self, occurrence: int, now: float) -> bool:
        return True


class NthOccurrencePlan(FaultPlan):
    """Fires on the ``n``-th hit (1-based); with ``repeat`` on every
    multiple of ``n``.  The crash-point scheduler arms exactly this plan:
    "crash the system the k-th time execution reaches site S"."""

    def __init__(self, n: int, repeat: bool = False):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.repeat = repeat

    def should_fire(self, occurrence: int, now: float) -> bool:
        if self.repeat:
            return occurrence % self.n == 0
        return occurrence == self.n

    def __repr__(self) -> str:
        return f"NthOccurrencePlan(n={self.n}, repeat={self.repeat})"


class ProbabilisticPlan(FaultPlan):
    """Fires independently with probability ``p`` per hit.

    Pass the registry's ``rng`` (or any seeded ``random.Random``) so the
    schedule is reproducible from the run's seed.
    """

    def __init__(self, p: float, rng: Optional[random.Random] = None,
                 seed: Optional[int] = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.p = p
        self.rng = rng if rng is not None else random.Random(seed)
        self.fired = 0

    def should_fire(self, occurrence: int, now: float) -> bool:
        fire = self.rng.random() < self.p
        if fire:
            self.fired += 1
        return fire

    def __repr__(self) -> str:
        return f"ProbabilisticPlan(p={self.p})"
