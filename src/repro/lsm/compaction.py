"""Compaction picking and merging.

Leveled compaction à la RocksDB/LevelDB:

* L0 -> L1: all (non-busy) L0 files plus every overlapping L1 file.  L0
  files overlap each other, so this compaction is *serialized* — at most
  one runs at a time.  That serialization is the root of the paper's
  stall class #2.
* Ln -> Ln+1 (n >= 1): one input file chosen round-robin by key cursor,
  plus the overlapping files in the next level.

Merging is newest-wins by sequence number, over the input tables'
columns (one sorted permutation, no entry tuples); tombstones are dropped
only when the output level is the bottommost (no older data below can
resurrect).  The Dev-LSM merges its runs with the same function
(:func:`merge_columns`), tombstones kept.  When every input table's
entries share one size (``SSTable.entry_bytes``), so do the output's,
and the output is cut into files by count instead of by summed sizes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress, count, islice, repeat
from operator import and_, eq, itemgetter, lt, ne
from typing import Optional

from ..types import KIND_DELETE
from .options import LsmOptions
from .sstable import (Columns, concat_columns, entry_sizes, packed, row_at,
                      size_column, slice_columns)
from .version import Version

__all__ = ["CompactionJob", "CompactionPicker", "cut_by_count",
           "merge_columns", "merge_for_compaction", "split_into_files"]


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


def merge_for_compaction(job: CompactionJob, num_levels: int) -> Columns:
    """Merged, deduplicated output rows of a compaction job, as columns
    (:func:`merge_columns` over the inputs' columns)."""
    return merge_columns([meta.table.columns for meta in job.all_inputs],
                         job.output_level == num_levels - 1)


def merge_columns(parts: list, bottommost: bool) -> Columns:
    """The rows of the column sets ``parts`` merged newest-wins, key
    ascending.  Each part is sorted and key-unique; the host's input
    tables and the Dev-LSM's runs and memtable all merge here.

    The parts' columns are joined and a permutation of the rows is
    sorted by key (stable, so a key's rows keep part order).  A Python
    loop runs only over the rows whose key repeats, and keeps the one
    with the highest sequence number; correctness comes from sequence
    numbers, not from the order of the parts.  Tombstones survive
    unless ``bottommost``.  The output columns are gathered through the
    permutation in C; no entry tuple is built, and no seed is gathered
    (a row's seed is its key).  Parts whose keys share one width merge
    their key integers; otherwise the keys merge as ``bytes``.

    Equal to the test reference ``newest_wins`` (in
    ``tests/sstable_reference.py``) over the parts' entries wherever that
    merge is defined.  Two *distinct* rows under one key and sequence
    number are a bug upstream (a sequence number names one write) and
    raise ``TypeError``, whatever their values; copies of one write merge
    to one row.
    """
    if len(parts) == 1 and not (bottommost and KIND_DELETE in parts[0][3]):
        # One part's rows are sorted and key-unique: they are the output.
        # Columns are never mutated, so the output shares them.
        return parts[0]
    columns = concat_columns(parts)
    keys, width, seqs, kinds, sizes, other = columns
    # The sort keys as one list, built in one C pass: a key function over
    # the array would be a call a row.
    sort_keys = keys if width is None else keys.tolist()
    order = sorted(range(len(keys)), key=sort_keys.__getitem__)
    del sort_keys
    out_keys = _take(keys, order)
    keep = None
    if not all(map(lt, out_keys, islice(out_keys, 1, None))):
        keep = _newest_of_each_key(columns, order, out_keys)
    if bottommost and KIND_DELETE in kinds:
        live = map(ne, _gather(order)(kinds), repeat(KIND_DELETE))
        keep = bytes(live) if keep is None else bytes(map(and_, keep, live))
    if keep is not None:
        order = list(compress(order, keep))
        out_keys = (list(compress(out_keys, keep)) if width is None
                    else array(out_keys.typecode, compress(out_keys, keep)))
    out_other = {}
    if other:
        hit = list(map(other.__contains__, order))
        out_other = dict(zip(compress(count(), hit),
                             map(other.__getitem__, compress(order, hit))))
    # A fixed-size cell's kinds are one value: repeated, not gathered; its
    # sizes are one int already.
    if sizes.__class__ is not int:
        sizes = size_column(_take(sizes, order))
    return (out_keys, width, _take(seqs, order),
            kinds[:1] * len(order) if _uniform(kinds)
            else bytes(_gather(order)(kinds)),
            sizes, out_other)


# Rows an array gather takes at a time: its transient ints stay this few.
_TAKE_BATCH = 1024


def _take(column, order: list):
    """The items of ``column`` (a list, or an array) at ``order``, as a
    list or an array of the same typecode."""
    if column.__class__ is list:
        return list(_gather(order)(column))
    code = column.typecode
    out = array(code)
    for i in range(0, len(order), _TAKE_BATCH):
        out += packed(code, _gather(order[i:i + _TAKE_BATCH])(column))
    return out


def _gather(order: list):
    """A function taking a column to the tuple of its items at ``order``
    (``itemgetter`` returns a bare item for one index)."""
    if len(order) > 1:
        return itemgetter(*order)
    return lambda column: tuple(map(column.__getitem__, order))


def _uniform(column) -> bool:
    """Whether every item of an array or bytes column equals the first:
    each item equals the next, compared in C without a copy."""
    view = memoryview(column)
    return view[1:] == view[:-1]


def _newest_of_each_key(columns: Columns, order: list,
                        sorted_keys: list) -> bytearray:
    """Selectors over ``order`` that keep, of each run of one key, the row
    with the highest sequence number; the loop visits only those runs.

    Within a run, rows that share a sequence number must be equal (copies
    of one write), else ``TypeError``.  That is stricter than the test
    reference ``newest_wins``, which raises only when its sort has to
    order two unorderable values (a ``ValueRef`` beside a ``bytes`` or a
    different ``ValueRef``) and otherwise keeps one."""
    seqs = columns[2]
    keep = bytearray(b"\x01") * len(order)
    runs: list = []                 # [first, last] sorted position of a run
    # Sorted positions i whose next row has the same key.
    for i in compress(count(), map(eq, sorted_keys,
                                   islice(sorted_keys, 1, None))):
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    for first, last in runs:
        # The run by sequence number, stable: equal seqs end up adjacent,
        # and equality is transitive, so neighbours are all to compare.
        run = sorted(range(first, last + 1),
                     key=lambda p: seqs[order[p]])
        for p, q in zip(run, islice(run, 1, None)):
            keep[p] = 0
            a, b = order[p], order[q]
            if seqs[a] == seqs[b] and row_at(columns, a) != row_at(columns,
                                                                 b):
                raise TypeError(f"two distinct writes under key "
                                f"{sorted_keys[first]!r}, seq {seqs[a]}")
    return keep


def split_into_files(columns: Columns, target_bytes: int) -> list:
    """Partition merged output into SST-sized column slices: a file takes
    rows while their summed :func:`~repro.types.entry_size` fits in
    ``target_bytes``, and at least one."""
    if target_bytes <= 0:
        raise ValueError("target_bytes must be positive")
    out: list = []
    start = cur_bytes = 0
    for i, sz in enumerate(entry_sizes(columns)):
        if cur_bytes and cur_bytes + sz > target_bytes:
            out.append(slice_columns(columns, start, i))
            start, cur_bytes = i, 0
        cur_bytes += sz
    if start == 0 and columns[0]:
        return [columns]            # one file holds every row
    if columns[0]:
        out.append(slice_columns(columns, start, len(columns[0])))
    return out


def cut_by_count(columns: Columns, entry_bytes: int,
                 target_bytes: int) -> list:
    """:func:`split_into_files`' cut for rows that all size
    ``entry_bytes``: a file takes as many rows as fit in
    ``target_bytes``, and at least one."""
    if target_bytes <= 0:
        raise ValueError("target_bytes must be positive")
    per = max(1, target_bytes // entry_bytes)
    n = len(columns[0])
    if n <= per:
        return [columns] if n else []
    return [slice_columns(columns, i, i + per) for i in range(0, n, per)]
