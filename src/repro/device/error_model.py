"""Wear-driven NAND failure model.

Real NAND fails in three host-visible ways, all of which get likelier as
blocks accumulate P/E cycles:

* **program failures** — a page program reports bad status; the FTL
  allocates a different page on reissue, and a block that keeps failing
  programs is *retired* as a grown bad block.  Surfaced to the host as a
  ``transient`` :class:`DeviceError` (the retry stack reissues, and the
  FTL's next allocation lands elsewhere).
* **erase failures** — GC's erase reports bad status; the block is
  retired on the spot.  Masked from the host (the FTL just eats a block
  of capacity), matching how real drives handle them.
* **ECC read retries** — a worn page needs extra sensing rounds, each
  costing ``read_retry_latency``: the latency *tail* of an aging drive.
  A read that exhausts its retry rounds may come back uncorrectable —
  a ``media`` error, non-retryable by the host.

The model hangs off :class:`~repro.device.nand.NandArray` (``error_model``
attribute, None by default — the usual zero-cost guard) and reads per-block
wear from the FTL's counters (``program_counts`` / ``erase_counts`` /
``last_programmed_block``).  Failure draws come from a private
``random.Random`` seeded from the fault seed, so runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ..resil.errors import DeviceError, MEDIA, TRANSIENT
from ..sim import Environment
from .ftl import Ftl

__all__ = ["NandErrorConfig", "NandErrorModel"]


# Each failure probability is interpolated from its base at zero wear to
# its max at PE_CYCLE_LIMIT erases.
PE_CYCLE_LIMIT = 3000                 # rated P/E cycles
PROGRAM_FAIL_MAX = 0.02
ERASE_FAIL_BASE = 0.0
ERASE_FAIL_MAX = 0.02
READ_RETRY_MAX = 0.5
READ_RETRY_LATENCY = 60e-6            # seconds per extra sensing round
READ_RETRY_ROUNDS = 3                 # max extra rounds before giving up
UNCORRECTABLE_PROB = 0.05             # read that exhausted its rounds
RETIRE_AFTER_PROGRAM_FAILS = 2        # consecutive fails -> grown bad


@dataclass(frozen=True)
class NandErrorConfig:
    """The base failure probabilities at zero wear, and the draw seed."""

    seed: Optional[int] = None            # default: the env's fault seed
    program_fail_base: float = 0.0
    read_retry_base: float = 0.0          # chance a read needs extra sensing

    def __post_init__(self) -> None:
        for name in ("program_fail_base", "read_retry_base"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability")


class NandErrorModel:
    """Stochastic failure source consulted by :meth:`NandArray.io`."""

    def __init__(self, env: Environment, ftl: Ftl,
                 config: Optional[NandErrorConfig] = None):
        self.env = env
        self.ftl = ftl
        self.config = config or NandErrorConfig()
        seed = self.config.seed
        if seed is None:
            reg = getattr(env, "faults", None)
            if reg is not None:
                seed = reg.seed
            else:
                from ..faults.registry import DEFAULT_SEED
                seed = DEFAULT_SEED
        # String seeding goes through SHA-512: stable across processes.
        self.rng = random.Random(f"{seed}:nand-errors")
        self.program_fails = 0
        self.erase_fails = 0
        self.read_retry_rounds = 0
        self.uncorrectable_reads = 0
        self.grown_bad_blocks = 0
        self._fail_streak: dict[int, int] = {}   # block -> consecutive fails

    def __repr__(self) -> str:
        return (f"NandErrorModel(program_fails={self.program_fails}, "
                f"erase_fails={self.erase_fails}, "
                f"bad_blocks={self.grown_bad_blocks})")

    # -- wear ----------------------------------------------------------------
    def _wear_frac(self, block: int) -> float:
        if block < 0:
            return 0.0
        return min(1.0, self.ftl.wear(block) / PE_CYCLE_LIMIT)

    def _prob(self, base: float, peak: float, block: int) -> float:
        return base + (peak - base) * self._wear_frac(block)

    # -- the hook ------------------------------------------------------------
    def on_io(self, op: str, nbytes: float) -> Tuple[float, Optional[DeviceError]]:
        """Called once per NAND op; returns (extra latency seconds, error
        to complete the command with, or None)."""
        cfg = self.config
        rng = self.rng
        if op == "program":
            block = self.ftl.last_programmed_block
            if rng.random() < self._prob(cfg.program_fail_base,
                                         PROGRAM_FAIL_MAX, block):
                self.program_fails += 1
                streak = self._fail_streak.get(block, 0) + 1
                self._fail_streak[block] = streak
                if streak >= RETIRE_AFTER_PROGRAM_FAILS and block >= 0:
                    self._retire(block)
                return 0.0, DeviceError(
                    TRANSIENT, site="nand.program",
                    detail=f"program failure in block {block}")
            if block >= 0:
                self._fail_streak.pop(block, None)
            return 0.0, None
        if op == "erase":
            block = self.ftl.last_erased_block
            if rng.random() < self._prob(ERASE_FAIL_BASE, ERASE_FAIL_MAX,
                                         block):
                self.erase_fails += 1
                if block >= 0:
                    self._retire(block)
                # Masked: the FTL loses the block, the host sees nothing.
            return 0.0, None
        if op == "read":
            p = self._prob(cfg.read_retry_base, READ_RETRY_MAX,
                           self.ftl.last_programmed_block)
            rounds = 0
            while rounds < READ_RETRY_ROUNDS and rng.random() < p:
                rounds += 1
            if rounds == 0:
                return 0.0, None
            self.read_retry_rounds += rounds
            extra = rounds * READ_RETRY_LATENCY
            self.env.probes.add("nand.read_retries", float(rounds))
            if (rounds == READ_RETRY_ROUNDS
                    and rng.random() < UNCORRECTABLE_PROB):
                self.uncorrectable_reads += 1
                return extra, DeviceError(MEDIA, site="nand.read",
                                          detail="uncorrectable ECC error")
            return extra, None
        return 0.0, None

    def _retire(self, block: int) -> None:
        if block not in self.ftl.retired_blocks:
            self.ftl.retire_block(block)
            self.grown_bad_blocks += 1
        self._fail_streak.pop(block, None)

    def snapshot(self) -> dict:
        return {
            "program_fails": self.program_fails,
            "erase_fails": self.erase_fails,
            "read_retry_rounds": self.read_retry_rounds,
            "uncorrectable_reads": self.uncorrectable_reads,
            "grown_bad_blocks": self.grown_bad_blocks,
            "retired_blocks": sorted(self.ftl.retired_blocks),
        }
