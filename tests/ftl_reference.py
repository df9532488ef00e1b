"""Reference model of the FTL: the page-granular dict implementation.

Two dicts map every logical page to its physical page and back, and
``write_batch`` is the per-page loop.  ``repro.device.Ftl`` stores its map
as runs of contiguous pages instead; the tests drive both with the same
operations and require every answer and all state to agree.
"""

from __future__ import annotations

from typing import Iterable

from repro.device import FtlError, GcStats, NandGeometry, Region
from repro.device import ftl as ftl_module

_INVALID = -1


class ReferenceFtl:
    """Per-page ``l2p``/``p2l`` dicts over the same regions and pools."""

    def __init__(self, geometry: NandGeometry):
        self.geometry = g = geometry
        op_blocks = max(2, int(g.total_blocks * ftl_module.OP_FRACTION))
        logical_pages = (g.total_blocks - op_blocks) * g.pages_per_block
        block_pages = int(logical_pages * ftl_module.SPLIT_FRACTION)
        self.disaggregation_point = block_pages
        block_phys = int(g.total_blocks * ftl_module.SPLIT_FRACTION)
        all_blocks = list(range(g.total_blocks))
        self.regions = {
            "block": Region("block", 0, block_pages,
                            free_blocks=all_blocks[:block_phys]),
            "kv": Region("kv", block_pages, logical_pages - block_pages,
                         free_blocks=all_blocks[block_phys:]),
        }
        self.l2p: dict[int, int] = {}
        self.p2l: dict[int, int] = {}      # insertion order is GC's order
        self.gc_stats = {"block": GcStats(), "kv": GcStats()}
        self.program_counts: dict[int, int] = {}
        self.erase_counts: dict[int, int] = {}
        self.retired_blocks: set[int] = set()
        self.last_programmed_block = _INVALID
        self.last_erased_block = _INVALID

    @property
    def total_logical_pages(self) -> int:
        return sum(r.lpn_count for r in self.regions.values())

    def state_digest(self) -> dict:
        return {
            "mapped": len(self.l2p),
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
                    continue
                region.open_block = blk
                region.used_blocks.add(blk)
                region.next_page_in_block = 0
                continue
            if tried_gc:
                raise FtlError(f"region {region.name!r} out of space")
            self._collect(region)
            tried_gc = True

    def write(self, lpn: int) -> int:
        region = self.region_of(lpn)
        ppn = self._alloc_ppn(region)
        old = self.l2p.get(lpn, _INVALID)
        if old != _INVALID:
            self.p2l.pop(old, None)
        self.l2p[lpn] = ppn
        self.p2l[ppn] = lpn
        return ppn

    def write_batch(self, lpns: Iterable[int]) -> list[int]:
        return [self.write(lpn) for lpn in lpns]

    def is_mapped(self, lpn: int) -> bool:
        return lpn in self.l2p

    def trim(self, lpns: range) -> None:
        for lpn in lpns:
            ppn = self.l2p.pop(lpn, _INVALID)
            if ppn != _INVALID:
                self.p2l.pop(ppn, None)

    def mapped_pages(self, region_name: str) -> int:
        region = self.regions[region_name]
        return sum(1 for lpn in self.l2p if region.contains(lpn))

    def retire_block(self, block: int) -> None:
        if not 0 <= block < self.geometry.total_blocks:
            raise FtlError(f"block {block} outside device")
        self.retired_blocks.add(block)
        for r in self.regions.values():
            if block in r.free_blocks:
                r.free_blocks.remove(block)
            if r.open_block == block:
                r.open_block = _INVALID
                r.next_page_in_block = 0

    def _collect(self, region: Region) -> None:
        g = self.geometry
        stats = self.gc_stats[region.name]
        stats.invocations += 1
        by_block: dict[int, list[int]] = {b: [] for b in region.used_blocks}
        for ppn, lpn in self.p2l.items():
            if region.contains(lpn):
                by_block.setdefault(ppn // g.pages_per_block, []).append(ppn)
        victims = sorted(
            (b for b in region.used_blocks if b != region.open_block),
            key=lambda b: (len(by_block.get(b, [])), b),
        )
        if not victims:
            return
        victim = victims[0]
        valid = by_block.get(victim, [])
        if len(valid) >= g.pages_per_block:
            return
        region.used_blocks.discard(victim)
        stats.blocks_erased += 1
        self.erase_counts[victim] = self.erase_counts.get(victim, 0) + 1
        self.last_erased_block = victim
        moved = []
        for ppn in valid:
            lpn = self.p2l.pop(ppn)
            moved.append(lpn)
            self.l2p.pop(lpn, None)
        if victim not in self.retired_blocks:
            region.free_blocks.append(victim)
        for lpn in moved:
            new_ppn = self._alloc_ppn(region)
            self.l2p[lpn] = new_ppn
            self.p2l[new_ppn] = lpn
            stats.pages_moved += 1
