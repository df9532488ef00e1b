"""Minimal extent-based file layer over the block device.

The host LSM needs just enough of a file system for SSTs, WAL segments and
the MANIFEST: named append-only files backed by byte extents on the block
region.  Extent allocation is first-fit over a free list with a bump
cursor, and deletes return extents for reuse — so a long fillrandom run
recycles the space of compacted-away SSTs instead of marching off the end
of the device.

All I/O charging flows through the underlying :class:`BlockDevice`, so PCIe
and NAND ledgers see every file operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..device.block_dev import BlockDevice

__all__ = ["FileSystem", "SimFile", "FsError", "PageCache"]


class PageCache:
    """Host page cache for recently *written* files.

    Freshly flushed SSTs (especially L0) sit in the OS page cache, so the
    immediately following L0->L1 compaction reads them without touching the
    device.  That host-side caching is what produces the paper's
    zero-PCIe-traffic windows inside write stalls (Figs 4/5): the merge
    phase runs from cache, silent on the link, then bursts when writing
    output.

    Granularity is whole files with LRU eviction by insertion/touch order;
    reads do not populate (write-back behaviour only), keeping the model
    conservative about read caching.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        self.capacity = capacity_bytes
        self._files: dict[str, int] = {}  # name -> cached bytes, LRU order
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def _evict_over_capacity(self, keep: str) -> None:
        while self._bytes > self.capacity and self._files:
            victim = next(iter(self._files))
            if victim == keep and len(self._files) == 1:
                break  # keep at least the file just written
            self._bytes -= self._files.pop(victim)

    def grow(self, name: str, nbytes: int) -> None:
        """Extend a cached file by an appended extent (MRU touch)."""
        if self.capacity == 0:
            return
        cur = self._files.pop(name, 0)
        self._files[name] = cur + nbytes
        self._bytes += nbytes
        self._evict_over_capacity(keep=name)

    def contains(self, name: str) -> bool:
        hit = name in self._files
        if hit:
            # touch: move to MRU
            self._files[name] = self._files.pop(name)
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def evict(self, name: str) -> None:
        self._bytes -= self._files.pop(name, 0)

    @property
    def used_bytes(self) -> int:
        return self._bytes


class FsError(RuntimeError):
    """File-layer misuse: duplicate create, missing file, out of space."""


@dataclass
class SimFile:
    """A named append-only file as a list of (offset, nbytes) extents."""

    name: str
    extents: list = field(default_factory=list)
    size: int = 0
    closed: bool = False


class FileSystem:
    """Extent allocator + name table over one block device."""

    def __init__(self, device: BlockDevice,
                 page_cache: Optional[PageCache] = None):
        self.device = device
        self._files: dict[str, SimFile] = {}
        self._cursor = 0
        self._free: list[tuple[int, int]] = []  # (offset, nbytes), first-fit
        # Request size -> where its first-fit search resumes: every free
        # extent before that index is smaller than the size.  Appends and
        # shrinks keep that true; a pop shifts the indices past it.
        self._resume: dict[int, int] = {}
        self.capacity = device.capacity_bytes
        self.page_cache = page_cache

    # -- namespace ----------------------------------------------------------
    def create(self, name: str) -> SimFile:
        if name in self._files:
            raise FsError(f"file exists: {name}")
        f = SimFile(name)
        self._files[name] = f
        return f

    def open(self, name: str) -> SimFile:
        try:
            return self._files[name]
        except KeyError:
            raise FsError(f"no such file: {name}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        f = self._files.pop(name, None)
        if f is None:
            raise FsError(f"no such file: {name}")
        for off, n in f.extents:
            self.device.trim(off, n)
            self._free.append((off, n))
        if self.page_cache is not None:
            self.page_cache.evict(name)
        f.closed = True

    def list_files(self) -> list[str]:
        return sorted(self._files)

    @property
    def used_bytes(self) -> int:
        return sum(f.size for f in self._files.values())

    # -- allocation ----------------------------------------------------------
    def _allocate(self, nbytes: int) -> tuple[int, int]:
        free, resume = self._free, self._resume
        for i in range(resume.get(nbytes, 0), len(free)):
            off, n = free[i]
            if n >= nbytes:
                resume[nbytes] = i
                if n == nbytes:
                    free.pop(i)
                    for size, at in resume.items():
                        if at > i:
                            resume[size] = at - 1
                else:
                    free[i] = (off + nbytes, n - nbytes)
                return off, nbytes
        resume[nbytes] = len(free)
        if self._cursor + nbytes > self.capacity:
            raise FsError(
                f"device full: need {nbytes}, cursor {self._cursor}, "
                f"capacity {self.capacity}"
            )
        off = self._cursor
        self._cursor += nbytes
        return off, nbytes

    # -- I/O ------------------------------------------------------------------
    def append(self, f: SimFile, nbytes: int, priority: int = 0) -> Generator:
        """Append ``nbytes`` to ``f`` (blocking process generator)."""
        if f.closed:
            raise FsError(f"file deleted: {f.name}")
        if nbytes <= 0:
            return
        off, n = self._allocate(nbytes)
        f.extents.append((off, n))
        f.size += n
        p = self.device.env.probes
        # Between allocation and the device write: a crash here models
        # a torn append (space claimed, data never made it to media).
        yield from p.at("fs.append.alloc")
        yield from self.device.write(off, n, priority=priority)
        if self.page_cache is not None:
            self.page_cache.grow(f.name, n)
        yield from p.at("fs.append.complete")

    def read(self, f: SimFile, offset: int, nbytes: int,
             priority: int = 0) -> Generator:
        """Read ``nbytes`` at file ``offset`` (blocking process generator)."""
        if f.closed:
            raise FsError(f"file deleted: {f.name}")
        if offset < 0 or offset + nbytes > f.size:
            raise FsError(
                f"read beyond EOF: {f.name} offset={offset} n={nbytes} size={f.size}"
            )
        # Probed before the page-cache check so cache-served reads are
        # still injectable (modeled read failure, not media failure).
        yield from self.device.env.probes.at("fs.read.start")
        if self.page_cache is not None and self.page_cache.contains(f.name):
            return  # served from host page cache: no device traffic
        remaining = nbytes
        pos = 0
        for ext_off, ext_n in f.extents:
            if remaining <= 0:
                break
            # Overlap of [offset, offset+nbytes) with this extent's file range.
            ext_start, ext_end = pos, pos + ext_n
            lo = max(offset, ext_start)
            hi = min(offset + nbytes, ext_end)
            if hi > lo:
                dev_off = ext_off + (lo - ext_start)
                yield from self.device.read(dev_off, hi - lo,
                                            priority=priority)
                remaining -= hi - lo
            pos = ext_end

    def read_all(self, f: SimFile) -> Generator:
        yield from self.read(f, 0, f.size)
