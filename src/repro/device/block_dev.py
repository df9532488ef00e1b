"""Block interface of the hybrid SSD.

Byte-extent reads/writes over the FTL's block region: the traditional NVMe
path the host file system and Main-LSM live on.  Every operation charges
the PCIe link (host<->device DMA) and the NAND array (media time), which is
what lets the experiments observe PCIe idle windows during compaction's
merge phases.
"""

from __future__ import annotations

from typing import Generator

from ..sim import Environment
from .ftl import Ftl, FtlError
from .nand import NandArray
from .pcie import PcieLink

__all__ = ["BlockDevice"]


class BlockDevice:
    """Page-granular block device over the FTL's block region."""

    def __init__(self, env: Environment, ftl: Ftl, nand: NandArray,
                 pcie: PcieLink):
        self.env = env
        self.ftl = ftl
        self.nand = nand
        self.pcie = pcie
        self._region = ftl.region("block")
        self.page_size = ftl.geometry.page_size
        self.bytes_written = 0
        self.bytes_read = 0
        # Optional repro.resil.RetryExecutor; None keeps I/O issue direct.
        # A retried write re-runs the FTL mapping, so the reissued program
        # lands on freshly allocated pages (how real drives recover from a
        # program failure).
        self.retry = None

    def _call(self, factory, site: str) -> Generator:
        if self.retry is None:
            return factory()
        return self.retry.call(factory, site=site)

    @property
    def capacity_bytes(self) -> int:
        return self._region.lpn_count * self.page_size

    def _pages(self, offset: int, nbytes: int) -> range:
        if offset < 0 or nbytes < 0:
            raise ValueError("offset/nbytes must be >= 0")
        if offset + nbytes > self.capacity_bytes:
            raise FtlError(
                f"extent [{offset}, {offset + nbytes}) beyond device capacity "
                f"{self.capacity_bytes}"
            )
        first = offset // self.page_size
        last = (offset + max(nbytes, 1) - 1) // self.page_size
        base = self._region.lpn_start
        return range(base + first, base + last + 1)

    def write(self, offset: int, nbytes: int, priority: int = 0) -> Generator:
        """Write ``nbytes`` at byte ``offset`` (blocking process generator).

        Host DMA over PCIe happens first, then the NAND program; the two
        stages pipeline across requests but serialize within one request,
        matching a simple non-overlapped controller.  ``priority`` is
        honored when the NAND array runs priority scheduling.
        """
        return self._call(lambda: self._write(offset, nbytes, priority),
                          "block.write")

    def _write(self, offset: int, nbytes: int, priority: int = 0) -> Generator:
        pages = self._pages(offset, nbytes)
        self.ftl.write_batch(pages)
        self.bytes_written += nbytes
        yield from self.pcie.transfer(nbytes)
        yield from self.nand.io("program", nbytes, priority=priority)

    def read(self, offset: int, nbytes: int, priority: int = 0) -> Generator:
        """Read ``nbytes`` at byte ``offset`` (blocking process generator)."""
        return self._call(lambda: self._read(offset, nbytes, priority),
                          "block.read")

    def _read(self, offset: int, nbytes: int, priority: int = 0) -> Generator:
        self._pages(offset, nbytes)  # bounds check
        self.bytes_read += nbytes
        yield from self.nand.io("read", nbytes, priority=priority)
        yield from self.pcie.transfer(nbytes, direction="rx")

    def trim(self, offset: int, nbytes: int) -> None:
        """Discard an extent (file deletion punches holes here)."""
        for lpn in self._pages(offset, nbytes):
            self.ftl.trim(lpn)
