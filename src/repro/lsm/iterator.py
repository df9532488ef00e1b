"""Newest-wins merges over memtables and SSTs.

A scan sees one ordered, deduplicated view across the active memtable,
immutable memtables, L0 files (which may overlap) and the sorted levels.
Newest-wins is resolved by sequence number: for a user key present in
several sources, only the entry with the highest seq is emitted.

Two merges give that view:

* :func:`merging_iterator` is the scans' streaming merge: a lazy heap
  merge (:func:`k_way_merge`), so a scan that stops after N entries pays
  for about N.  It is also the reference the batch merge is tested
  against.
* :func:`newest_wins` is the batch merge of entry tuples for callers that
  consume every entry (the Dev-LSM's bulk scan, iterator and
  compaction): one C-level sort and one C-level filter, no per-entry
  Python frame.  Host compaction merges SSTable columns instead
  (``compaction.merge_for_compaction``), and is tested against it.

Both are *functional* — they yield exact entries; the DB layer charges
device I/O for the SST blocks a scan crosses (see ``DbImpl.scan``),
keeping hot-loop cost low (guide idiom: keep the per-item work tiny,
account in batches).
"""

from __future__ import annotations

import heapq
from itertools import chain, compress, islice
from operator import itemgetter, ne
from typing import Iterable, Iterator, Optional

from ..types import KIND_DELETE, Entry

__all__ = ["merging_iterator", "k_way_merge", "newest_wins"]

_key = itemgetter(0)


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


def newest_wins(sources: Iterable[Iterable[Entry]]) -> list:
    """All of ``sources`` merged newest-wins, key ascending, tombstones kept.

    Sorts every entry in natural tuple order, ``(key, seq, ...)`` ascending,
    and keeps the last entry of each key's run: the one with the highest
    sequence number.  Sources need not be sorted, and a key may repeat
    within one.  Equal to ``list(merging_iterator(sources,
    include_tombstones=True))`` for sorted, key-unique sources.

    Natural order reaches past the sequence number only when two entries
    share key and seq.  A sequence number names one write, so two such
    entries are copies of that write (a rollback re-writes an entry under
    its original seq), equal tuples whichever is kept.  Two *distinct*
    entries with one key and seq would be a bug upstream; their order
    would then fall to kind and value, and a ``ValueRef`` beside a
    ``bytes`` or a different ``ValueRef`` raises ``TypeError`` here.
    """
    merged = sorted(chain.from_iterable(sources))
    keys = list(map(_key, merged))
    keys.append(None)       # the last entry ends its key's run
    return list(compress(merged, map(ne, keys, islice(keys, 1, None))))
