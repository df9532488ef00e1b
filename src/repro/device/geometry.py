"""NAND flash geometry for the simulated SSD.

Defaults follow the Cosmos+ OpenSSD board used by the paper (Table I):
1 TB of NAND organised as 4 channels x 8 ways, PCIe Gen2 x8 host link, and a
measured peak device bandwidth of ~630 MB/s.

The geometry yields derived figures (page count, peak program/read
bandwidth) that the rest of the device model consumes, so a profile can
scale the device down (the `mini` profile) by changing a handful of numbers
here and everything else follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NandGeometry", "NandTiming", "KiB", "MiB", "GiB"]

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

# ONFI channel bandwidth, bytes/s.
CHANNEL_BW = 400 * MiB


@dataclass(frozen=True)
class NandTiming:
    """Raw NAND operation latencies (seconds)."""

    t_read: float = 90e-6        # page read (tR)
    t_program: float = 700e-6    # page program (tPROG)
    t_erase: float = 5e-3        # block erase (tBERS)

    def __post_init__(self) -> None:
        for name in ("t_read", "t_program", "t_erase"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class NandGeometry:
    """Physical layout of the NAND array."""

    channels: int = 4
    ways: int = 8
    blocks_per_way: int = 512
    pages_per_block: int = 256
    page_size: int = 16 * KiB
    timing: NandTiming = field(default_factory=NandTiming)

    def __post_init__(self) -> None:
        for name in ("channels", "ways", "blocks_per_way", "pages_per_block", "page_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # -- derived quantities -------------------------------------------------
    @property
    def total_blocks(self) -> int:
        return self.channels * self.ways * self.blocks_per_way

    @property
    def total_pages(self) -> int:
        return self.total_blocks * self.pages_per_block

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_size

    @property
    def peak_program_bw(self) -> float:
        """Aggregate program bandwidth with all channels/ways pipelined.

        Each way can program a page every (transfer + tPROG); ways on a
        channel share the channel bus for transfers but overlap cell
        programming, so the steady-state per-channel rate is limited by
        max(transfer-serialisation, tPROG/ways).
        """
        t = self.timing
        xfer = self.page_size / CHANNEL_BW
        # transfers serialize on the channel; programs overlap across ways
        per_channel_rate = self.page_size / max(xfer, t.t_program / self.ways)
        return per_channel_rate * self.channels

    @property
    def peak_read_bw(self) -> float:
        t = self.timing
        xfer = self.page_size / CHANNEL_BW
        per_channel_rate = self.page_size / max(xfer, t.t_read / self.ways)
        return per_channel_rate * self.channels
