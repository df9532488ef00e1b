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

``SeedColumnSSTable``, ``seed_to_columns``, ``seed_dict_columns``,
``seed_merge_columns``, ``seed_split_into_files`` and ``seed_cut_by_count``
are the previous column layout, kept as a reference for the current one:
a key ``bytes`` list and a seed and a size for every row, where the
current tables store key integers and imply the seed (the key integer)
and, where rows share one, the size.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from hashlib import blake2b
from itertools import chain, compress, count, islice, repeat
from operator import add, and_, attrgetter, eq, is_not, itemgetter, lt, ne
from struct import error as StructError
from struct import pack

from repro.lsm.bloom import BloomFilter
from repro.lsm.fs import FsError
from repro.types import (ENTRY_OVERHEAD, KIND_DELETE, ValueRef, entry_size,
                         value_size)

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


# -- the previous column layout -----------------------------------------------
# Columns ``(keys, seqs, kinds, seeds, sizes, other)``: the key ``bytes``
# list, ``array('q')`` sequence numbers, a kinds string, ``array('q')``
# seeds and value sizes of every row, and ``{row: value}`` for each row
# whose value is not a ``ValueRef`` with an int64 seed.
_seq, _kind, _value = map(itemgetter, range(1, 4))
_seed = attrgetter("seed")
_size = attrgetter("size")
_INT64 = range(-1 << 63, 1 << 63)


def _int64s(values):
    out = array("q")
    out.frombytes(pack(f"{len(values)}q", *values))
    return out


def seed_to_columns(entries):
    return _seed_columns(list(map(_key, entries)), entries)


def seed_dict_columns(table):
    keys = sorted(table)
    return _seed_columns(keys, list(map(table.__getitem__, keys)))


def _seed_columns(keys, entries):
    seqs = _int64s(list(map(_seq, entries)))
    kinds = bytes(map(_kind, entries))
    values = list(map(_value, entries))
    try:
        return (keys, seqs, kinds, _int64s(list(map(_seed, values))),
                _int64s(list(map(_size, values))), {})
    except (AttributeError, StructError):
        pass
    other = {i: values[i] for i in compress(
        count(), map(is_not, map(type, values), repeat(ValueRef)))}
    for i, v in other.items():
        values[i] = ValueRef(0, value_size(v))
    try:
        seeds = _int64s(list(map(_seed, values)))
    except StructError:
        for i, v in enumerate(values):
            if v.seed not in _INT64:
                other[i] = v
                values[i] = ValueRef(0, v.size)
        seeds = _int64s(list(map(_seed, values)))
    return keys, seqs, kinds, seeds, _int64s(list(map(_size, values))), other


def seed_row_at(columns, i):
    keys, seqs, kinds, seeds, sizes, other = columns
    value = other[i] if i in other else ValueRef(seeds[i], sizes[i])
    return keys[i], seqs[i], kinds[i], value


def seed_iter_rows(columns, start=0):
    keys, seqs, kinds, seeds, sizes, other = columns
    values = map(ValueRef, seeds[start:], sizes[start:])
    if other:
        values = map(other.get, range(start, len(keys)), values)
    return zip(keys[start:], seqs[start:], kinds[start:], values)


def _seed_slice(columns, start, stop):
    keys, seqs, kinds, seeds, sizes, other = columns
    return (keys[start:stop], seqs[start:stop], kinds[start:stop],
            seeds[start:stop], sizes[start:stop],
            {i - start: v for i, v in other.items() if start <= i < stop})


def _seed_concat(parts):
    keys = []
    seqs, seeds, sizes = array("q"), array("q"), array("q")
    other = {}
    for p in parts:
        if p[5]:
            other.update(zip(map(add, p[5], repeat(len(seqs))),
                             p[5].values()))
        keys += p[0]
        seqs += p[1]
        seeds += p[3]
        sizes += p[4]
    return keys, seqs, b"".join(p[2] for p in parts), seeds, sizes, other


def seed_entry_sizes(columns):
    return list(map(add, map(len, columns[0]),
                    map(add, columns[4], repeat(ENTRY_OVERHEAD))))


def _gather(order):
    if len(order) > 1:
        return itemgetter(*order)
    return lambda column: tuple(map(column.__getitem__, order))


def _uniform(column):
    view = memoryview(column)
    return view[1:] == view[:-1]


def seed_merge_columns(parts, bottommost):
    """The previous ``compaction.merge_columns``."""
    if len(parts) == 1 and not (bottommost and KIND_DELETE in parts[0][2]):
        return parts[0]
    columns = _seed_concat(parts)
    keys, seqs, kinds, seeds, sizes, other = columns
    order = sorted(range(len(keys)), key=keys.__getitem__)
    out_keys = list(_gather(order)(keys))
    keep = None
    if not all(map(lt, out_keys, islice(out_keys, 1, None))):
        keep = _seed_newest_of_each_key(columns, order, out_keys)
    if bottommost and KIND_DELETE in kinds:
        live = map(ne, _gather(order)(kinds), repeat(KIND_DELETE))
        keep = bytes(live) if keep is None else bytes(map(and_, keep, live))
    if keep is not None:
        order = list(compress(order, keep))
        out_keys = list(compress(out_keys, keep))
    out_other = {}
    if other:
        hit = list(map(other.__contains__, order))
        out_other = dict(zip(compress(count(), hit),
                             map(other.__getitem__, compress(order, hit))))
    n = len(order)

    def take(column):
        return _int64s(list(_gather(order)(column))) if order else array("q")

    return (out_keys, take(seqs),
            kinds[:1] * n if _uniform(kinds) else bytes(_gather(order)(kinds)),
            take(seeds),
            sizes[:1] * n if _uniform(sizes) else take(sizes),
            out_other)


def _seed_newest_of_each_key(columns, order, sorted_keys):
    seqs = columns[1]
    keep = bytearray(b"\x01") * len(order)
    runs = []
    for i in compress(count(), map(eq, sorted_keys,
                                   islice(sorted_keys, 1, None))):
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    for first, last in runs:
        run = sorted(range(first, last + 1), key=lambda p: seqs[order[p]])
        for p, q in zip(run, islice(run, 1, None)):
            keep[p] = 0
            a, b = order[p], order[q]
            if seqs[a] == seqs[b] and (seed_row_at(columns, a)
                                       != seed_row_at(columns, b)):
                raise TypeError(f"two distinct writes under key "
                                f"{sorted_keys[first]!r}, seq {seqs[a]}")
    return keep


def seed_split_into_files(columns, target_bytes):
    """The previous ``compaction.split_into_files``."""
    if target_bytes <= 0:
        raise ValueError("target_bytes must be positive")
    out = []
    start = cur_bytes = 0
    for i, sz in enumerate(seed_entry_sizes(columns)):
        if cur_bytes and cur_bytes + sz > target_bytes:
            out.append(_seed_slice(columns, start, i))
            start, cur_bytes = i, 0
        cur_bytes += sz
    if start == 0 and columns[0]:
        return [columns]
    if columns[0]:
        out.append(_seed_slice(columns, start, len(columns[0])))
    return out


def seed_cut_by_count(columns, entry_bytes, target_bytes):
    """The previous ``compaction.cut_by_count``."""
    if target_bytes <= 0:
        raise ValueError("target_bytes must be positive")
    per = max(1, target_bytes // entry_bytes)
    n = len(columns[0])
    if n <= per:
        return [columns] if n else []
    return [_seed_slice(columns, i, i + per) for i in range(0, n, per)]


class SeedColumnSSTable:
    """The previous ``SSTable`` over seed columns: its layout, filter and
    read path (``read_block``, ``lower_bound``, ``iter_from``)."""

    def __init__(self, file_number, columns, block_size=16 * 1024,
                 bloom_bits_per_key=10):
        keys = columns[0]
        if not keys:
            raise ValueError("SSTable cannot be empty")
        self.file_number = file_number
        self.columns = columns
        self.smallest, self.largest = keys[0], keys[-1]
        sizes = seed_entry_sizes(columns)
        self.entry_bytes = sizes[0] if min(sizes) == max(sizes) else None
        starts, block_bytes, cur = [0], [], 0
        for i, sz in enumerate(sizes):
            if cur and cur + sz > block_size:
                starts.append(i)
                block_bytes.append(cur)
                cur = 0
            cur += sz
        block_bytes.append(cur)
        self._block_starts, self._block_bytes = starts, block_bytes
        self.data_bytes = sum(block_bytes)
        self._bloom = BloomFilter(len(keys), bloom_bits_per_key)
        self.file_bytes = (self.data_bytes + self._bloom.size_bytes
                           + 24 * len(starts) + 128)

    @property
    def bloom(self):
        if not self._bloom.num_added:
            self._bloom.add_all(self.columns[0])
        return self._bloom

    @property
    def num_blocks(self):
        return len(self._block_starts)

    def block_bytes(self, block_idx):
        return self._block_bytes[block_idx]

    def read_block(self, key):
        keys = self.columns[0]
        i = bisect_right(keys, key) - 1
        cost = self._block_bytes[bisect_right(self._block_starts, i) - 1]
        if keys[i] == key:
            return seed_row_at(self.columns, i), cost
        return None, cost

    def lower_bound(self, key):
        return bisect_left(self.columns[0], key)

    def iter_from(self, key=None):
        start = 0 if key is None else self.lower_bound(key)
        return seed_iter_rows(self.columns, start)
