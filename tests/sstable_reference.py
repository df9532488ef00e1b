"""Reference model of the SSTable: a list of entry tuples.

``ReferenceSSTable`` holds its entries as the list of ``(key, seq, kind,
value)`` tuples it was built from, sizes them one by one and cuts blocks
by summing those sizes.  ``repro.lsm.SSTable`` stores its entries as
columns instead; the tests build both from the same entries and require
every answer to agree.  ``newest_wins`` is the batch merge of entry
tuples that the column merge (``compaction.merge_columns``, which host
compaction and the Dev-LSM share) is held to; ``reference_merge`` and
``reference_split`` are compaction's merge and mixed-size file cut over
entry lists.  ``reference_get_from_ssts`` is the host point lookup as a
generator of candidate files and one ``probe`` per file.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from hashlib import blake2b
from itertools import chain, compress, islice
from operator import attrgetter, itemgetter, lt, ne

from repro.lsm.bloom import BloomFilter
from repro.lsm.fs import FsError
from repro.types import KIND_DELETE, entry_size

_key = itemgetter(0)


def reference_may_contain(bloom, key):
    """The filter's verdict by its definition: every probe ``i`` of
    ``key``, bit ``(h1 + i * h2) mod num_bits`` of ``bloom``'s bits, is
    set (``h1``, ``h2`` the halves of its 16-byte BLAKE2b digest, ``h2``
    made odd)."""
    digest = blake2b(key, digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    bits, n = int.from_bytes(bloom._bits, "little"), bloom.num_bits
    return all(bits >> (h1 + i * h2) % n & 1 for i in range(bloom.k))


class ReferenceSSTable:
    """Sorted, key-unique entry tuples in byte-budget blocks."""

    def __init__(self, file_number, entries, block_size=16 * 1024,
                 bloom_bits_per_key=10):
        if not entries:
            raise ValueError("SSTable cannot be empty")
        self.file_number = file_number
        self.entries = list(entries)
        keys = list(map(_key, self.entries))
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise ValueError("entries must be sorted and key-unique")
        self.smallest, self.largest = keys[0], keys[-1]
        sizes = list(map(entry_size, self.entries))
        self.entry_bytes = sizes[0] if min(sizes) == max(sizes) else None
        self._block_starts, self._block_bytes, cur = [0], [], 0
        for i, sz in enumerate(sizes):
            if cur and cur + sz > block_size:
                self._block_starts.append(i)
                self._block_bytes.append(cur)
                cur = 0
            cur += sz
        self._block_bytes.append(cur)
        self.data_bytes = sum(sizes)
        self._bloom = BloomFilter(len(keys), bloom_bits_per_key)
        self.file_bytes = (self.data_bytes + self._bloom.size_bytes
                           + 24 * len(self._block_starts) + 128)

    @property
    def bloom(self):
        """The filter, filled from the keys when first asked for."""
        if not self._bloom.num_added:
            self._bloom.add_all(list(map(_key, self.entries)))
        return self._bloom

    @property
    def num_blocks(self):
        return len(self._block_starts)

    def block_bytes(self, block_idx):
        return self._block_bytes[block_idx]

    def probe(self, key):
        """(entry or None, bytes read, bloom negative)."""
        if key < self.smallest or key > self.largest:
            return None, 0, False
        if not reference_may_contain(self.bloom, key):
            return None, 0, True
        i = bisect_right(self.entries, key, key=_key) - 1
        cost = self._block_bytes[bisect_right(self._block_starts, i) - 1]
        if self.entries[i][0] == key:
            return self.entries[i], cost, False
        return None, cost, False

    def lower_bound(self, key):
        return bisect_left(self.entries, key, key=_key)

    def iter_from(self, key=None):
        start = 0 if key is None else self.lower_bound(key)
        return iter(self.entries[start:])


def reference_files_for_key(version, key):
    """The files whose range holds ``key``, newest data first, yielded one
    at a time: overlapping L0 files by descending file number, then a
    bisect per L1+ level."""
    for f in sorted(version.levels[0], key=lambda f: -f.number):
        if f.smallest <= key <= f.largest:
            yield f
    for level in range(1, version.num_levels):
        files = version.levels[level]
        lo = bisect_left(files, key, key=attrgetter("largest"))
        if lo < len(files) and files[lo].smallest <= key:
            yield files[lo]


def reference_get_from_ssts(db, key):
    """``DbImpl._get_from_ssts`` over a version of :class:`ReferenceSSTable`
    s: ``probe`` each candidate in turn; a probe that read a block charges
    it as one read of the file, hit or not; the first entry found wins."""
    for meta in reference_files_for_key(db.versions.current, key):
        entry, cost, _negative = meta.table.probe(key)
        if cost:
            try:
                f = db.fs.open(db._sst_name(meta.number))
            except FsError:
                f = None
            if f is not None:
                yield from db.fs.read(f, 0, min(cost, f.size))
        if entry is not None:
            return entry
    return None


def newest_wins(sources):
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


def reference_merge(sources, bottommost):
    """Compaction's output entries: newest-wins over the entry lists
    ``sources``, tombstones dropped at the bottommost level."""
    merged = newest_wins(sources)
    if bottommost:
        return [e for e in merged if e[2] != KIND_DELETE]
    return merged


def reference_split(entries, target_bytes):
    """Compaction's mixed-size file cut: a file takes entries while their
    summed ``entry_size`` fits in ``target_bytes``, and at least one."""
    out, cur, cur_bytes = [], [], 0
    for e in entries:
        sz = entry_size(e)
        if cur and cur_bytes + sz > target_bytes:
            out.append(cur)
            cur, cur_bytes = [], 0
        cur.append(e)
        cur_bytes += sz
    if cur:
        out.append(cur)
    return out
