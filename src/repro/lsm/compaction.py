"""Compaction picking and merging.

Leveled compaction à la RocksDB/LevelDB:

* L0 -> L1: all (non-busy) L0 files plus every overlapping L1 file.  L0
  files overlap each other, so this compaction is *serialized* — at most
  one runs at a time.  That serialization is the root of the paper's
  stall class #2.
* Ln -> Ln+1 (n >= 1): one input file chosen round-robin by key cursor,
  plus the overlapping files in the next level.

Merging is newest-wins by sequence number; tombstones are dropped only
when the output level is the bottommost (no older data below can
resurrect).  When every input table's entries share one size
(``SSTable.entry_bytes``), so do the output's, and the output is cut
into files by count instead of by summed sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..types import KIND_DELETE, entry_size
from .iterator import newest_wins
from .options import LsmOptions
from .version import FileMetadata, Version

__all__ = ["CompactionJob", "CompactionPicker", "cut_by_count",
           "merge_for_compaction", "split_into_files"]


@dataclass
class CompactionJob:
    """A picked compaction: inputs at two adjacent levels."""

    level: int
    output_level: int
    inputs_low: list = field(default_factory=list)   # FileMetadata at `level`
    inputs_high: list = field(default_factory=list)  # FileMetadata at output
    # Output files created but not yet installed — deleted as orphans if a
    # crash interrupts the job before its version edit lands.
    partial_outputs: list = field(default_factory=list)

    @property
    def all_inputs(self) -> list:
        return self.inputs_low + self.inputs_high

    @property
    def input_bytes(self) -> int:
        return sum(meta.file_bytes for meta in self.all_inputs)

    @property
    def entry_bytes(self) -> Optional[int]:
        """The one entry size every input table's entries share, or None.

        The merged output is a subset of the inputs' entries, so it
        shares that size too."""
        sizes = {meta.table.entry_bytes for meta in self.all_inputs}
        return sizes.pop() if len(sizes) == 1 else None


class CompactionPicker:
    """Chooses the most urgent compaction from a version."""

    def __init__(self, options: LsmOptions):
        self.options = options
        # round-robin cursors: next smallest-key to compact per level
        self._cursors: dict[int, bytes] = {}

    def pick(self, version: Version) -> Optional[CompactionJob]:
        opt = self.options
        # Candidate levels with score >= 1, most urgent first.  Dynamic
        # level targets (Version.level_targets) keep L1+ scores balanced,
        # so a count-pressured L0 naturally outbids them.
        scored = []
        for level in range(version.num_levels - 1):
            score = version.compaction_score(opt, level)
            if score >= 1.0:
                scored.append((score, level))
        scored.sort(key=lambda sl: (-sl[0], sl[1]))
        for _score, level in scored:
            job = self._pick_level(version, level)
            if job is not None:
                return job
        return None

    def _pick_level(self, version: Version, level: int) -> Optional[CompactionJob]:
        if level == 0:
            return self._pick_l0(version)
        files = [f for f in version.level_files(level) if not f.being_compacted]
        if not files:
            return None
        cursor = self._cursors.get(level, b"")
        candidates = [f for f in files if f.smallest > cursor] or files
        low = candidates[0]
        highs = version.overlapping_files(level + 1, low.smallest, low.largest)
        if any(f.being_compacted for f in highs):
            return None
        self._cursors[level] = low.smallest
        return CompactionJob(level=level, output_level=level + 1,
                             inputs_low=[low], inputs_high=highs)

    def _pick_l0(self, version: Version) -> Optional[CompactionJob]:
        l0 = version.level_files(0)
        if not l0:
            return None
        if any(f.being_compacted for f in l0):
            return None  # L0 -> L1 is serialized
        smallest = min(f.smallest for f in l0)
        largest = max(f.largest for f in l0)
        highs = version.overlapping_files(1, smallest, largest)
        if any(f.being_compacted for f in highs):
            return None
        return CompactionJob(level=0, output_level=1,
                             inputs_low=list(l0), inputs_high=highs)


def merge_for_compaction(job: CompactionJob, num_levels: int) -> list:
    """Merged, deduplicated output entries for a compaction job.

    One batch :func:`newest_wins` over the input tables; correctness
    comes from sequence numbers, not from the order of the inputs.
    Tombstones survive unless the output level is the bottommost.
    """
    merged = newest_wins(f.table.entries for f in job.all_inputs)
    if job.output_level == num_levels - 1:
        return [e for e in merged if e[2] != KIND_DELETE]
    return merged


def split_into_files(entries: list, target_bytes: int) -> list:
    """Partition merged output into SST-sized chunks.

    Returns ``(entries, sizes)`` per output file; ``sizes`` are the
    per-entry :func:`entry_size` s, computed here once and handed to the
    :class:`SSTable` built from the chunk.
    """
    if target_bytes <= 0:
        raise ValueError("target_bytes must be positive")
    sizes = list(map(entry_size, entries))
    out: list[tuple[list, list]] = []
    start = cur_bytes = 0
    for i, sz in enumerate(sizes):
        if cur_bytes and cur_bytes + sz > target_bytes:
            out.append((entries[start:i], sizes[start:i]))
            start, cur_bytes = i, 0
        cur_bytes += sz
    if entries:
        out.append((entries[start:], sizes[start:]))
    return out


def cut_by_count(entries: list, entry_bytes: int, target_bytes: int) -> list:
    """:func:`split_into_files`' cut for entries that all size
    ``entry_bytes``: a file takes as many entries as fit in
    ``target_bytes``, and at least one.  Returns the chunks alone; the
    tables built from them carry ``entry_bytes`` instead of sizes."""
    if target_bytes <= 0:
        raise ValueError("target_bytes must be positive")
    per = max(1, target_bytes // entry_bytes)
    return [entries[i:i + per] for i in range(0, len(entries), per)]
