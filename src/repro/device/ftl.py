"""Page-level Flash Translation Layer with region disaggregation.

Section V-D of the paper: the logical NAND address space is split at a
*disaggregation point* into a block region (Main-LSM / file system) and a
key-value region (Dev-LSM).  The FTL maps each region's logical pages onto
physical pages drawn from disjoint block pools, so "there are no issues of
overlapping logical NAND pages between the two interfaces".

This FTL is functional: it tracks logical->physical maps, page validity,
per-region free-block pools, and performs greedy garbage collection when a
region runs out of free blocks.  Data payloads are optional (tests use
them; the large simulations map metadata only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .geometry import NandGeometry

__all__ = ["Ftl", "Region", "FtlError", "GcStats"]

_INVALID = -1


class FtlError(RuntimeError):
    """Raised on invalid FTL operations (out-of-range LPN, full region)."""


@dataclass
class GcStats:
    invocations: int = 0
    pages_moved: int = 0
    blocks_erased: int = 0


@dataclass
class Region:
    """A contiguous logical-page range bound to a private physical pool."""

    name: str
    lpn_start: int
    lpn_count: int
    free_blocks: list[int] = field(default_factory=list)
    used_blocks: set[int] = field(default_factory=set)
    open_block: int = _INVALID
    next_page_in_block: int = 0

    def contains(self, lpn: int) -> bool:
        return self.lpn_start <= lpn < self.lpn_start + self.lpn_count


class Ftl:
    """Disaggregated page-mapping FTL over a :class:`NandGeometry`."""

    def __init__(self, geometry: NandGeometry, split_fraction: float = 0.75,
                 op_fraction: float = 0.07):
        """``split_fraction`` of the logical space goes to the block region,
        the rest to the KV region.  ``op_fraction`` of physical blocks are
        over-provisioning (GC headroom)."""
        if not 0.0 < split_fraction < 1.0:
            raise ValueError("split_fraction must be in (0, 1)")
        if not 0.0 <= op_fraction < 0.5:
            raise ValueError("op_fraction must be in [0, 0.5)")
        self.geometry = geometry
        g = geometry
        op_blocks = max(2, int(g.total_blocks * op_fraction))
        logical_pages = (g.total_blocks - op_blocks) * g.pages_per_block

        block_pages = int(logical_pages * split_fraction)
        kv_pages = logical_pages - block_pages
        self.disaggregation_point = block_pages

        block_phys = int(g.total_blocks * split_fraction)
        all_blocks = list(range(g.total_blocks))
        self.regions: dict[str, Region] = {
            "block": Region("block", 0, block_pages,
                            free_blocks=all_blocks[:block_phys]),
            "kv": Region("kv", block_pages, kv_pages,
                         free_blocks=all_blocks[block_phys:]),
        }

        self._l2p: dict[int, int] = {}
        self._p2l: dict[int, int] = {}  # valid physical page -> owning lpn
        self._data: dict[int, Any] = {}
        self.gc_stats = {"block": GcStats(), "kv": GcStats()}

        # Wear / reliability bookkeeping for the NAND error model
        # (repro.device.error_model).  Pure counters — they never alter
        # allocation order or timing, so attaching them is trajectory-free.
        self.program_counts: dict[int, int] = {}   # block -> pages programmed
        self.erase_counts: dict[int, int] = {}     # block -> P/E cycles
        self.retired_blocks: set[int] = set()      # grown bad blocks
        self.last_programmed_block = _INVALID
        self.last_erased_block = _INVALID

    # -- lookup ----------------------------------------------------------
    @property
    def total_logical_pages(self) -> int:
        return sum(r.lpn_count for r in self.regions.values())

    def state_digest(self) -> dict:
        """FTL occupancy + wear for journal digest checkpoints.

        Aggregates (counts and sums) rather than raw maps keep the dict
        cheap to hash at every checkpoint while still flipping on any
        divergent program, erase, GC move or block retirement.
        """
        return {
            "mapped": len(self._l2p),
            "programs": sum(self.program_counts.values()),
            "erases": sum(self.erase_counts.values()),
            "retired": sorted(self.retired_blocks),
            "last_programmed": self.last_programmed_block,
            "last_erased": self.last_erased_block,
            "regions": {
                name: [len(r.free_blocks), len(r.used_blocks),
                       r.open_block, r.next_page_in_block]
                for name, r in self.regions.items()
            },
            "gc": {
                name: [s.invocations, s.pages_moved, s.blocks_erased]
                for name, s in self.gc_stats.items()
            },
        }

    def region_of(self, lpn: int) -> Region:
        for r in self.regions.values():
            if r.contains(lpn):
                return r
        raise FtlError(f"LPN {lpn} outside logical space")

    def region(self, name: str) -> Region:
        try:
            return self.regions[name]
        except KeyError:
            raise FtlError(f"unknown region {name!r}") from None

    # -- allocation --------------------------------------------------------
    def _alloc_ppn(self, region: Region) -> int:
        g = self.geometry
        tried_gc = False
        while True:
            if (region.open_block != _INVALID
                    and region.next_page_in_block < g.pages_per_block):
                blk = region.open_block
                ppn = blk * g.pages_per_block + region.next_page_in_block
                region.next_page_in_block += 1
                self.program_counts[blk] = self.program_counts.get(blk, 0) + 1
                self.last_programmed_block = blk
                return ppn
            if region.free_blocks:
                blk = region.free_blocks.pop(0)
                if blk in self.retired_blocks:
                    continue          # grown bad block: never reused
                region.open_block = blk
                region.used_blocks.add(blk)
                region.next_page_in_block = 0
                continue
            if tried_gc:
                raise FtlError(f"region {region.name!r} out of space")
            # GC's page moves recurse into _alloc_ppn and may consume the
            # freed block immediately, so re-evaluate the open block after.
            self._collect(region)
            tried_gc = True

    # -- public API ----------------------------------------------------------
    def write(self, lpn: int, data: Any = None) -> int:
        """Map ``lpn`` to a fresh physical page; returns the PPN."""
        region = self.region_of(lpn)
        ppn = self._alloc_ppn(region)
        # Looked up after the allocation: a GC it triggered may have moved
        # the very page being overwritten, and that copy must be unmapped.
        old = self._l2p.get(lpn, _INVALID)
        if old != _INVALID:
            self._p2l.pop(old, None)
            self._data.pop(old, None)
        self._l2p[lpn] = ppn
        self._p2l[ppn] = lpn
        if data is not None:
            self._data[ppn] = data
        return ppn

    def write_batch(self, lpns: Iterable[int]) -> list[int]:
        """Map a batch of logical pages; returns the PPNs in order.

        Metadata companion of the device layers' macro events (channel
        bursts map whole page runs at once).  Strictly equivalent to
        calling :meth:`write` per LPN — same allocation order, same wear
        counters, same ``state_digest`` — so batching call sites cannot
        perturb golden trajectories.

        A contiguous ``range`` (what the block interface passes) resolves
        its region once and maps each run that fits the open block in bulk;
        :meth:`write` takes over page by page wherever it could do more
        than map: at a block boundary (new block, GC), past the region's
        edge, and for any other iterable.
        """
        if not isinstance(lpns, range) or lpns.step != 1 or not lpns:
            return [self.write(lpn) for lpn in lpns]
        region = self.region_of(lpns.start)
        edge = min(lpns.stop, region.lpn_start + region.lpn_count)
        per_block = self.geometry.pages_per_block
        l2p, p2l, data = self._l2p, self._p2l, self._data
        ppns: list[int] = []
        lpn = lpns.start
        while lpn < edge:
            blk = region.open_block
            used = region.next_page_in_block
            if blk == _INVALID or used >= per_block:
                ppns.append(self.write(lpn))
                lpn += 1
                continue
            count = min(per_block - used, edge - lpn)
            run = range(lpn, lpn + count)
            first = blk * per_block + used
            new = range(first, first + count)
            for old in [l2p[l] for l in run if l in l2p]:
                p2l.pop(old, None)
                data.pop(old, None)
            l2p.update(zip(run, new))
            p2l.update(zip(new, run))
            region.next_page_in_block = used + count
            self.program_counts[blk] = self.program_counts.get(blk, 0) + count
            self.last_programmed_block = blk
            ppns.extend(new)
            lpn += count
        ppns.extend(map(self.write, range(edge, lpns.stop)))
        return ppns

    def read(self, lpn: int) -> Any:
        """Return the payload at ``lpn`` (None if written without payload)."""
        ppn = self._l2p.get(lpn, _INVALID)
        if ppn == _INVALID:
            raise FtlError(f"LPN {lpn} unmapped")
        return self._data.get(ppn)

    def is_mapped(self, lpn: int) -> bool:
        return lpn in self._l2p

    def trim(self, lpn: int) -> None:
        """Unmap a logical page (discard)."""
        ppn = self._l2p.pop(lpn, _INVALID)
        if ppn != _INVALID:
            self._p2l.pop(ppn, None)
            self._data.pop(ppn, None)

    def mapped_pages(self, region_name: str) -> int:
        region = self.region(region_name)
        return sum(1 for lpn in self._l2p if region.contains(lpn))

    def free_pages(self, region_name: str) -> int:
        region = self.region(region_name)
        g = self.geometry
        free = len(region.free_blocks) * g.pages_per_block
        if region.open_block != _INVALID:
            free += g.pages_per_block - region.next_page_in_block
        return free

    # -- reliability ------------------------------------------------------------
    def retire_block(self, block: int) -> None:
        """Mark ``block`` as a grown bad block: it is withdrawn from the
        free pool and never allocated again.  Valid pages it still holds
        stay mapped (readable) until GC moves them off; the block simply
        never returns to the pool after its final erase."""
        if not 0 <= block < self.geometry.total_blocks:
            raise FtlError(f"block {block} outside device")
        self.retired_blocks.add(block)
        for r in self.regions.values():
            if block in r.free_blocks:
                r.free_blocks.remove(block)
            if r.open_block == block:
                # Close it: remaining free pages in a bad block are unusable.
                r.open_block = _INVALID
                r.next_page_in_block = 0

    def wear(self, block: int) -> int:
        """P/E cycles block has seen (erase count)."""
        return self.erase_counts.get(block, 0)

    # -- garbage collection ----------------------------------------------------
    def _valid_pages_by_block(self, region: Region) -> dict[int, list[int]]:
        g = self.geometry
        out: dict[int, list[int]] = {b: [] for b in region.used_blocks}
        for ppn, lpn in self._p2l.items():
            if region.contains(lpn):
                out.setdefault(ppn // g.pages_per_block, []).append(ppn)
        return out

    def _collect(self, region: Region) -> None:
        """Greedy GC: erase the block with the fewest valid pages.

        Valid pages are copied forward.  This is metadata-only; callers
        model GC I/O time if they care (our simulations size regions so GC
        stays rare, matching the paper's 600 s runs on a 1 TB device).
        """
        stats = self.gc_stats[region.name]
        stats.invocations += 1
        by_block = self._valid_pages_by_block(region)
        victims = sorted(
            (b for b in region.used_blocks if b != region.open_block),
            key=lambda b: (len(by_block.get(b, [])), b),
        )
        if not victims:
            return
        victim = victims[0]
        valid = by_block.get(victim, [])
        if len(valid) >= self.geometry.pages_per_block:
            return  # nothing reclaimable
        region.used_blocks.discard(victim)
        stats.blocks_erased += 1
        self.erase_counts[victim] = self.erase_counts.get(victim, 0) + 1
        self.last_erased_block = victim
        # Detach valid pages first so their copies cannot land on the victim.
        moved = []
        for ppn in valid:
            lpn = self._p2l.pop(ppn)
            moved.append((lpn, self._data.pop(ppn, None)))
            self._l2p.pop(lpn, None)
        if victim not in self.retired_blocks:
            region.free_blocks.append(victim)
        for lpn, data in moved:
            new_ppn = self._alloc_ppn(region)
            self._l2p[lpn] = new_ppn
            self._p2l[new_ppn] = lpn
            if data is not None:
                self._data[new_ppn] = data
            stats.pages_moved += 1
