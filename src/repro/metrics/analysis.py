"""Post-run analysis: write amplification, stall causes, system accounting.

These reports answer the questions a storage engineer asks after a run:
where did every device byte go (WAL / flush / compaction / redirect), what
caused each stall, and how did the LSM shape evolve — the same accounting
the paper uses to argue KVACCEL's bandwidth reclamation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["WriteAmplification", "write_amplification", "StallBreakdown",
           "stall_breakdown", "device_byte_accounting"]


@dataclass
class WriteAmplification:
    """Device write bytes per user byte, by source."""

    user_bytes: int
    wal_bytes: int
    flush_bytes: int
    compaction_bytes: int
    redirect_bytes: int = 0

    @property
    def total_device_writes(self) -> int:
        return (self.wal_bytes + self.flush_bytes + self.compaction_bytes
                + self.redirect_bytes)

    @property
    def factor(self) -> float:
        """Classic WA: device write bytes / user bytes."""
        if self.user_bytes == 0:
            return 0.0
        return self.total_device_writes / self.user_bytes

    def breakdown(self) -> dict:
        if self.user_bytes == 0:
            return {}
        u = self.user_bytes
        return {
            "wal": self.wal_bytes / u,
            "flush": self.flush_bytes / u,
            "compaction": self.compaction_bytes / u,
            "redirect": self.redirect_bytes / u,
        }


def write_amplification(db, user_bytes: Optional[int] = None,
                        redirect_bytes: int = 0) -> WriteAmplification:
    """Compute WA for a DbImpl (or a KvaccelDb's main LSM).

    ``db`` may be a DbImpl or anything exposing ``.main`` (KvaccelDb).
    """
    main = getattr(db, "main", db)
    user = user_bytes if user_bytes is not None else main.stats.user_write_bytes
    return WriteAmplification(
        user_bytes=user,
        wal_bytes=main.wal.durable_bytes,
        flush_bytes=main.stats.flush_bytes_written,
        compaction_bytes=main.stats.compaction_bytes_written,
        redirect_bytes=redirect_bytes,
    )


@dataclass
class StallBreakdown:
    """Stall/slowdown accounting over one run."""

    duration: float
    stall_events: int
    stall_time: float
    delayed_time: float
    intervals: list = field(default_factory=list)

    @property
    def stall_fraction(self) -> float:
        return self.stall_time / self.duration if self.duration else 0.0

    @property
    def delayed_fraction(self) -> float:
        return self.delayed_time / self.duration if self.duration else 0.0

    @property
    def longest_stall(self) -> float:
        return max((t1 - t0 for t0, t1 in self.intervals), default=0.0)


def stall_breakdown(result) -> StallBreakdown:
    """Build a StallBreakdown from a RunResult."""
    return StallBreakdown(
        duration=result.duration,
        stall_events=result.stall_events,
        stall_time=result.total_stall_time,
        delayed_time=result.total_delayed_time,
        intervals=list(result.stall_intervals),
    )


def device_byte_accounting(ssd) -> dict:
    """Where the device's NAND and PCIe bytes went (HybridSsd or setup)."""
    return {
        "pcie_bytes": ssd.pcie.ledger.total_bytes,
        "nand_bytes": ssd.nand.ledger.total_bytes if hasattr(ssd, "nand")
        else None,
        "block_written": ssd.block.bytes_written,
        "block_read": ssd.block.bytes_read,
        "devlsm_bytes": ssd.devlsm.total_bytes,
        "devlsm_flushes": ssd.devlsm.flush_count,
    }
