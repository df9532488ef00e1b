"""The scans' newest-wins merge over memtables and SSTs.

A scan sees one ordered, deduplicated view across the active memtable,
immutable memtables, L0 files (which may overlap) and the sorted levels.
Newest-wins is resolved by sequence number: for a user key present in
several sources, only the entry with the highest seq is emitted.

:func:`merging_iterator` gives that view as a streaming merge: a lazy
heap merge (:func:`k_way_merge`), so a scan that stops after N entries
pays for about N.  Callers that consume every entry — host compaction
and the Dev-LSM's compaction, bulk scan and iterator — merge SSTable
columns instead (``compaction.merge_columns``); the tests hold that
merge to a batch merge of entry tuples (``newest_wins`` in
``tests/sstable_reference.py``), and that one to this iterator.

It is *functional* — it yields exact entries; the DB layer charges
device I/O for the SST blocks a scan crosses (see ``DbImpl.scan``),
keeping hot-loop cost low (guide idiom: keep the per-item work tiny,
account in batches).
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional

from ..types import KIND_DELETE, Entry

__all__ = ["merging_iterator", "k_way_merge"]


def k_way_merge(sources: list) -> Iterator[Entry]:
    """Merge already-sorted entry iterators by (key asc, seq desc).

    Sources must each be sorted by key with unique keys per source.
    Duplicate keys across sources are all emitted (newest first); use
    :func:`merging_iterator` for the deduplicated view.
    """
    heap = []
    iters = []
    for idx, src in enumerate(sources):
        it = iter(src)
        iters.append(it)
        first = next(it, None)
        if first is not None:
            heap.append((first[0], -first[1], idx, first))
    heapq.heapify(heap)
    while heap:
        key, negseq, idx, entry = heapq.heappop(heap)
        yield entry
        nxt = next(iters[idx], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt[0], -nxt[1], idx, nxt))


def merging_iterator(sources: list, include_tombstones: bool = False
                     ) -> Iterator[Entry]:
    """Deduplicated newest-wins merge; optionally drops DELETE entries."""
    last_key: Optional[bytes] = None
    for entry in k_way_merge(sources):
        if entry[0] == last_key:
            continue  # older duplicate
        last_key = entry[0]
        if not include_tombstones and entry[2] == KIND_DELETE:
            continue
        yield entry
