"""LSM version management: levels, manifest, compaction scores.

A :class:`Version` is an immutable snapshot of the level structure
(copy-on-write, so in-flight reads and compactions see consistent state
while new versions install).  :class:`VersionSet` applies
:class:`VersionEdit` s, persists them to a MANIFEST file, and computes the
two statistics the write-stall machinery watches: per-level compaction
scores and the estimated *pending compaction bytes* (RocksDB's
``estimated-pending-compaction-bytes``, the third stall trigger in the
paper's taxonomy).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Generator, Optional

from .options import LsmOptions
from .sstable import SSTable

__all__ = ["FileMetadata", "VersionEdit", "Version", "VersionSet"]

_smallest = attrgetter("smallest")
_largest = attrgetter("largest")


@dataclass
class FileMetadata:
    """One SST file registered in a version."""

    number: int
    level: int
    table: SSTable
    being_compacted: bool = False

    def __post_init__(self) -> None:
        # Plain attributes, not property hops: pickers and reads touch
        # these once per file per query.
        self.smallest: bytes = self.table.smallest
        self.largest: bytes = self.table.largest
        self.file_bytes: int = self.table.file_bytes


@dataclass
class VersionEdit:
    """A delta applied atomically: files added and files removed."""

    added: list = field(default_factory=list)    # FileMetadata
    removed: list = field(default_factory=list)  # (level, file_number)
    reason: str = ""

    def encoded_size(self) -> int:
        """Approximate manifest record size (for I/O charging)."""
        return 64 + 48 * len(self.added) + 16 * len(self.removed)


class Version:
    """Immutable level structure.

    Everything the write-stall machinery asks per write is install-time
    state: per-level byte totals are carried from the parent version by
    :meth:`apply` (old - removed + added), the newest-first L0 order is
    fixed once, and the score/target/debt summary is computed at most once
    per value of the option fields it reads.
    """

    def __init__(self, num_levels: int,
                 levels: Optional[list] = None,
                 level_bytes: Optional[list] = None):
        self.num_levels = num_levels
        self.levels: list[list[FileMetadata]] = (
            levels if levels is not None else [[] for _ in range(num_levels)]
        )
        self._level_bytes: list[int] = (
            level_bytes if level_bytes is not None
            else [sum(meta.file_bytes for meta in lvl) for lvl in self.levels]
        )
        # L0 files may overlap; newer file numbers hold newer data.
        self.l0_newest_first: list[FileMetadata] = sorted(
            self.levels[0], key=lambda f: -f.number)
        self._summary: Optional[tuple] = None

    def apply(self, edit: VersionEdit) -> "Version":
        """The version ``edit`` produces: the one place an edit is applied,
        for live installs and manifest replay alike.

        Costs O(files of the levels the edit touches); untouched levels
        are shared with this version.  Raises if an L1+ level would hold
        overlapping files.
        """
        levels = list(self.levels)
        level_bytes = list(self._level_bytes)
        removed = set(edit.removed)
        for level in {lvl for lvl, _number in removed}:
            kept = []
            for f in levels[level]:
                if (level, f.number) in removed:
                    level_bytes[level] -= f.file_bytes
                else:
                    kept.append(f)
            levels[level] = kept
        grown = {meta.level for meta in edit.added}
        for level in grown:
            levels[level] = list(levels[level])
        for meta in edit.added:
            levels[meta.level].append(meta)
            level_bytes[meta.level] += meta.file_bytes
        for level in grown:
            if level == 0:
                continue
            files = levels[level]
            files.sort(key=_smallest)
            # L1+ must stay sorted and non-overlapping (LSM invariant).
            for a, b in zip(files, files[1:]):
                if a.largest >= b.smallest:
                    raise AssertionError(
                        f"overlap at L{level}: #{a.number}[..{a.largest!r}] "
                        f"vs #{b.number}[{b.smallest!r}..]")
        return Version(self.num_levels, levels, level_bytes)

    # -- queries ------------------------------------------------------------
    def level_bytes(self, level: int) -> int:
        return self._level_bytes[level]

    def level_files(self, level: int) -> list:
        return self.levels[level]

    @property
    def l0_count(self) -> int:
        return len(self.levels[0])

    def total_bytes(self) -> int:
        return sum(self._level_bytes)

    def total_files(self) -> int:
        return sum(len(l) for l in self.levels)

    def overlapping_files(self, level: int, smallest: bytes,
                          largest: bytes) -> list:
        files = self.levels[level]
        if level == 0:      # L0 files overlap each other: no order to use
            return [f for f in files if f.table.overlaps(smallest, largest)]
        return files[bisect_left(files, smallest, key=_largest):
                     bisect_right(files, largest, key=_smallest)]

    def level_files_from(self, level: int, key: bytes) -> list:
        """Files of sorted level ``level`` (L1+) that may hold keys >=
        ``key``: where a scan seeking to ``key`` starts reading."""
        files = self.levels[level]
        return files[bisect_left(files, key, key=_largest):]

    def files_for_key(self, key: bytes) -> Generator:
        """Yield candidate files newest-first: L0 by recency, then L1+.

        L0 files may overlap, so all covering files are candidates in file
        number order (newer numbers are newer data).  L1+ are disjoint, so
        at most one file per level matters.
        """
        for f in self.l0_newest_first:
            if f.smallest <= key <= f.largest:
                yield f
        for level in range(1, self.num_levels):
            files = self.levels[level]
            lo = bisect_left(files, key, key=_largest)
            if lo < len(files) and files[lo].smallest <= key:
                yield files[lo]

    # -- stall statistics -----------------------------------------------------
    def _summarize(self, options: LsmOptions) -> tuple:
        """``(key, targets, scores, best, debt)`` under ``options``.

        Memoized on the three option fields the statistics read; the ADOC
        tuner mutates other fields of the same object mid-run.
        """
        base = options.max_bytes_for_level_base
        multiplier = options.max_bytes_for_level_multiplier
        trigger = options.level0_file_num_compaction_trigger
        key = (base, multiplier, trigger)
        summary = self._summary
        if summary is not None and summary[0] == key:
            return summary
        n = self.num_levels
        level_bytes = self._level_bytes
        targets = [0.0] * n
        bottom = max((l for l in range(1, n) if self.levels[l]), default=1)
        targets[bottom] = max(float(level_bytes[bottom]), float(base))
        floor = base / multiplier
        for level in range(bottom - 1, 0, -1):
            targets[level] = max(targets[level + 1] / multiplier, floor)
        for level in range(bottom + 1, n):
            targets[level] = max(targets[level - 1] * multiplier, float(base))

        scores = [len(self.levels[0]) / trigger]
        scores += [level_bytes[l] / targets[l] for l in range(1, n)]
        best_level, best_score = -1, 0.0
        for level in range(n - 1):
            if scores[level] > best_score:
                best_level, best_score = level, scores[level]

        debt = level_bytes[0] if len(self.levels[0]) >= trigger else 0
        for level in range(1, n - 1):
            excess = level_bytes[level] - targets[level]
            if excess > 0:
                debt += int(excess)
        summary = self._summary = (key, targets, scores,
                                   (best_level, best_score), debt)
        return summary

    def level_targets(self, options: LsmOptions) -> list:
        """Dynamic level size targets (RocksDB's
        ``level_compaction_dynamic_level_bytes``, default since v8).

        The bottommost non-empty level is the resting place: its target is
        its own size (never "over target").  Each level above targets
        1/multiplier of the one below, floored at base/multiplier, so
        scores stay balanced as the tree deepens instead of letting a
        statically-undersized L1 monopolize the picker.
        """
        return list(self._summarize(options)[1])

    def compaction_score(self, options: LsmOptions, level: int) -> float:
        """RocksDB-style score: >= 1.0 means the level needs compaction."""
        return self._summarize(options)[2][level]

    def best_compaction_level(self, options: LsmOptions) -> tuple[int, float]:
        """(level, score) of the most urgent compaction candidate."""
        return self._summarize(options)[3]

    def pending_compaction_bytes(self, options: LsmOptions) -> int:
        """Estimated bytes that must be rewritten to bring scores under 1.

        Approximates RocksDB's estimate: every byte above a level's target
        must move down (and be merged with overlap, counted once here), and
        all L0 bytes beyond the compaction trigger are debt.
        """
        return self._summarize(options)[4]


class VersionSet:
    """Owner of the current version + MANIFEST persistence."""

    def __init__(self, options: LsmOptions, fs=None):
        self.options = options
        self.fs = fs
        self.current = Version(options.num_levels)
        self._next_file_number = 1
        self._manifest = None
        if fs is not None:
            self._manifest = fs.create("MANIFEST-000001")
        self.edit_count = 0
        # The durable edit journal (what the MANIFEST file contains); crash
        # recovery replays it to prove the version state is reconstructible.
        self.manifest_journal: list[VersionEdit] = []

    def new_file_number(self) -> int:
        n = self._next_file_number
        self._next_file_number += 1
        return n

    def log_and_apply(self, edit: VersionEdit) -> Generator:
        """Persist the edit and atomically install the new version.

        Manifest I/O happens *before* the in-memory install, which contains
        no yields, so concurrent flush and compaction installs cannot lose
        each other's updates.
        """
        if self._manifest is not None:
            yield from self.fs.append(self._manifest, edit.encoded_size())
        self.apply(edit)

    def apply(self, edit: VersionEdit) -> None:
        """Install an edit in memory, without manifest I/O (the second half
        of :meth:`log_and_apply`; tests and bootstrap call it directly)."""
        self.current = self.current.apply(edit)
        self.edit_count += 1
        self.manifest_journal.append(edit)

    def rebuild_from_journal(self) -> Version:
        """Replay the manifest journal from scratch (crash recovery).

        Returns the reconstructed version; raises if replay diverges from
        the in-memory current version (would indicate a lost update).
        """
        replayed = Version(self.options.num_levels)
        for edit in self.manifest_journal:
            replayed = replayed.apply(edit)
        got = [[f.number for f in lvl] for lvl in replayed.levels]
        want = [[f.number for f in lvl] for lvl in self.current.levels]
        if got != want:
            raise AssertionError(
                f"manifest replay diverged: {got} != {want}")
        return replayed
