"""Page-level Flash Translation Layer with region disaggregation.

Section V-D of the paper: the logical NAND address space is split at a
*disaggregation point* into a block region (Main-LSM / file system) and a
key-value region (Dev-LSM).  The FTL maps each region's logical pages onto
physical pages drawn from disjoint block pools, so "there are no issues of
overlapping logical NAND pages between the two interfaces".

This FTL is functional: it tracks the logical->physical map, page
validity, per-region free-block pools, and performs greedy garbage
collection when a region runs out of free blocks.  Mapping is page-granular,
but the map is stored as runs: one record per run of logical pages mapped to
contiguous physical pages, which is what SST and WAL writes program.  The
FTL maps metadata only: page contents live in the layers above it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable

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


# Share of the logical space (and of the physical blocks) that goes to the
# block region; the rest is the KV region.
SPLIT_FRACTION = 0.75
# Share of the physical blocks kept as over-provisioning (GC headroom).
OP_FRACTION = 0.07


class Ftl:
    """Disaggregated page-mapping FTL over a :class:`NandGeometry`."""

    def __init__(self, geometry: NandGeometry):
        self.geometry = geometry
        g = geometry
        op_blocks = max(2, int(g.total_blocks * OP_FRACTION))
        logical_pages = (g.total_blocks - op_blocks) * g.pages_per_block

        block_pages = int(logical_pages * SPLIT_FRACTION)
        kv_pages = logical_pages - block_pages
        self.disaggregation_point = block_pages

        block_phys = int(g.total_blocks * SPLIT_FRACTION)
        all_blocks = list(range(g.total_blocks))
        self.regions: dict[str, Region] = {
            "block": Region("block", 0, block_pages,
                            free_blocks=all_blocks[:block_phys]),
            "kv": Region("kv", block_pages, kv_pages,
                         free_blocks=all_blocks[block_phys:]),
        }

        # The logical->physical map as sorted, disjoint, maximal runs: run
        # ``i`` maps LPNs ``[_starts[i], _starts[i] + _lens[i])`` onto the
        # PPNs from ``_ppns[i]`` on.  Two runs that touch in both spaces are
        # always one run.
        self._starts: list[int] = []
        self._lens: list[int] = []
        self._ppns: list[int] = []
        self._mapped = 0                        # pages the runs cover
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
            "mapped": self._mapped,
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

    # -- the run map ---------------------------------------------------------
    def _lookup(self, lpn: int) -> int:
        """PPN mapped at ``lpn``, or ``_INVALID``."""
        i = bisect_right(self._starts, lpn) - 1
        if i >= 0 and lpn - self._starts[i] < self._lens[i]:
            return self._ppns[i] + lpn - self._starts[i]
        return _INVALID

    def _unmap(self, lo: int, hi: int) -> int:
        """Unmap LPNs ``[lo, hi)``; returns the index a run starting at
        ``lo`` would take."""
        starts, lens, ppns = self._starts, self._lens, self._ppns
        i = bisect_right(starts, lo) - 1
        if i < 0 or starts[i] + lens[i] <= lo:
            i += 1                      # first run that ends after lo
        k = bisect_left(starts, hi, i)  # runs [i, k) overlap [lo, hi)
        if i == k:
            return i
        head = starts[i] < lo
        keep_s, keep_l, keep_p = [], [], []
        if head:                        # the head of the first run stays
            keep_s.append(starts[i])
            keep_l.append(lo - starts[i])
            keep_p.append(ppns[i])
        end = starts[k - 1] + lens[k - 1]
        if end > hi:                    # the tail of the last run stays
            keep_s.append(hi)
            keep_l.append(end - hi)
            keep_p.append(ppns[k - 1] + hi - starts[k - 1])
        self._mapped -= sum(lens[i:k]) - sum(keep_l)
        starts[i:k] = keep_s
        lens[i:k] = keep_l
        ppns[i:k] = keep_p
        return i + head

    def _map(self, lpn: int, ppn: int, count: int) -> None:
        """Map LPNs ``[lpn, lpn + count)`` onto PPNs from ``ppn`` on."""
        i = self._unmap(lpn, lpn + count)
        starts, lens, ppns = self._starts, self._lens, self._ppns
        self._mapped += count
        if i and starts[i - 1] + lens[i - 1] == lpn and (
                ppns[i - 1] + lens[i - 1] == ppn):
            i -= 1
            lens[i] += count
        else:
            starts.insert(i, lpn)
            lens.insert(i, count)
            ppns.insert(i, ppn)
        j = i + 1
        if j < len(starts) and starts[j] == starts[i] + lens[i] and (
                ppns[j] == ppns[i] + lens[i]):
            lens[i] += lens[j]
            del starts[j], lens[j], ppns[j]

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
    def write(self, lpn: int) -> int:
        """Map ``lpn`` to a fresh physical page; returns the PPN."""
        region = self.region_of(lpn)
        # Allocate before unmapping: a GC the allocation triggers may move
        # the very page being overwritten, and that copy must be unmapped.
        ppn = self._alloc_ppn(region)
        self._map(lpn, ppn, 1)
        return ppn

    def write_batch(self, lpns: Iterable[int]) -> list[int]:
        """Map a batch of logical pages; returns the PPNs in order.

        Metadata companion of the device layers' macro events (channel
        bursts map whole page runs at once).  Strictly equivalent to
        calling :meth:`write` per LPN — same allocation order, same wear
        counters, same ``state_digest`` — so batching call sites cannot
        perturb golden trajectories.

        A contiguous ``range`` (what the block interface and the Dev-LSM
        pass) resolves its region once and maps each run that fits the open
        block as one run; :meth:`write` takes over page by page wherever it
        could do more than map: at a block boundary (new block, GC), past
        the region's edge, and for any other iterable.
        """
        if not isinstance(lpns, range) or lpns.step != 1 or not lpns:
            return [self.write(lpn) for lpn in lpns]
        region = self.region_of(lpns.start)
        edge = min(lpns.stop, region.lpn_start + region.lpn_count)
        per_block = self.geometry.pages_per_block
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
            first = blk * per_block + used
            self._map(lpn, first, count)
            region.next_page_in_block = used + count
            self.program_counts[blk] = self.program_counts.get(blk, 0) + count
            self.last_programmed_block = blk
            ppns.extend(range(first, first + count))
            lpn += count
        ppns.extend(map(self.write, range(edge, lpns.stop)))
        return ppns

    def is_mapped(self, lpn: int) -> bool:
        return self._lookup(lpn) != _INVALID

    def trim(self, lpns: range) -> None:
        """Unmap a contiguous range of logical pages (discard); pages that
        are not mapped are skipped."""
        if not lpns:
            return
        self._unmap(lpns.start, lpns.stop)

    def mapped_pages(self, region_name: str) -> int:
        region = self.region(region_name)
        lo, hi = region.lpn_start, region.lpn_start + region.lpn_count
        return sum(max(0, min(s + n, hi) - max(s, lo))
                   for s, n in zip(self._starts, self._lens))

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
    def _valid_pages_by_block(self, region: Region) -> dict[int, list]:
        """Valid ``(ppn, lpn)`` pages of ``region`` per block, ascending."""
        per_block = self.geometry.pages_per_block
        lo, hi = region.lpn_start, region.lpn_start + region.lpn_count
        out: dict[int, list] = {b: [] for b in region.used_blocks}
        for start, n, ppn in zip(self._starts, self._lens, self._ppns):
            for lpn in range(max(start, lo), min(start + n, hi)):
                p = ppn + lpn - start
                out.setdefault(p // per_block, []).append((p, lpn))
        for pages in out.values():
            pages.sort()
        return out

    def _collect(self, region: Region) -> None:
        """Greedy GC: erase the block with the fewest valid pages.

        Valid pages are copied forward in ascending PPN order.  This is
        metadata-only; callers model GC I/O time if they care (our
        simulations size regions so GC stays rare, matching the paper's
        600 s runs on a 1 TB device).
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
        for _ppn, lpn in valid:
            self._unmap(lpn, lpn + 1)
        if victim not in self.retired_blocks:
            region.free_blocks.append(victim)
        for _ppn, lpn in valid:
            self._map(lpn, self._alloc_ppn(region), 1)
            stats.pages_moved += 1
