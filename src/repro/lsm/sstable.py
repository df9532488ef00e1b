"""Sorted String Tables.

An SST holds a sorted, key-unique run of entries partitioned into
fixed-byte-budget data blocks, plus an index (first row per block) and a
per-file bloom filter.  Point reads touch the bloom and index in memory
(RocksDB pins them in block cache) and pay device I/O for exactly the data
blocks fetched — :meth:`SSTable.read_block` returns the byte count so the
DB can charge the device model.

A table stores its entries as *columns*, row ``i`` being entry ``i``.  The
columns travel as one tuple ``(keys, seqs, kinds, seeds, sizes, other)``:

* ``keys``: the key ``bytes``, a list, so ``bisect`` runs in C;
* ``seqs``: sequence numbers, ``array('q')``;
* ``kinds``: ``bytes``, one kind a row;
* ``seeds``: a ``ValueRef`` row's seed, ``array('q')`` (0 in other rows);
* ``sizes``: every row's value size, ``array('q')``: a ``ValueRef``'s
  size, a ``bytes`` value's length, 0 for a tombstone — so entry sizes
  are column sums;
* ``other``: ``{row: value}`` for each row whose value is not a
  ``ValueRef`` with an int64 seed (tombstones, ``bytes``, a seed outside
  int64).

That is about 70 bytes an entry with 4-byte keys, where a list of entry
tuples held about 217 (the tuple, its ``ValueRef`` and seed int, the
sequence int).  Entry tuples are built only at the table's edge: a probe
hit, :meth:`SSTable.iter_from` and :attr:`SSTable.entries`.  Compaction
merges the columns themselves (``compaction.merge_columns``).  The
Dev-LSM's runs are tables too, built and merged the same way.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, count, islice, repeat
from operator import add, attrgetter, is_not, itemgetter, lt
from struct import error as StructError
from struct import pack
from typing import Iterator, NamedTuple, Optional, Sequence

from ..types import ENTRY_OVERHEAD, Entry, ValueRef, value_size
from .bloom import BloomFilter, key_hash
from .codec import decode_block, encode_block

__all__ = ["SSTable", "ProbeResult", "columns_bytes", "concat_columns",
           "dict_columns", "entry_sizes", "int64s", "iter_rows", "row_at",
           "rows_at", "slice_columns", "to_columns"]

_key, _seq, _kind, _value = map(itemgetter, range(4))
_seed = attrgetter("seed")
_size = attrgetter("size")
_INT64 = range(-1 << 63, 1 << 63)

# (keys, seqs, kinds, seeds, sizes, other); see the module docstring.
Columns = tuple


def int64s(values: Sequence[int]) -> array:
    """``values`` as an ``array('q')``, packed through ``struct``: twice
    as fast as ``array('q', values)``, which parses each item apart.
    Raises ``struct.error`` for a value outside int64."""
    out = array("q")
    out.frombytes(pack(f"{len(values)}q", *values))
    return out


def to_columns(entries: Sequence[Entry]) -> Columns:
    """Entry tuples as columns, in C-level passes; a Python loop runs only
    over the rows that go to ``other``, and over all rows only when a seed
    lies outside int64."""
    return _columns(list(map(_key, entries)), entries)


def dict_columns(table: dict) -> Columns:
    """The entries of ``table`` (key -> entry tuple: a memtable) as
    columns, key ascending.  Sorting the keys alone orders the rows."""
    keys = sorted(table)
    return _columns(keys, list(map(table.__getitem__, keys)))


def _columns(keys: list, entries: Sequence[Entry]) -> Columns:
    """Columns of ``entries``, whose keys ``keys`` already are."""
    seqs = int64s(list(map(_seq, entries)))
    kinds = bytes(map(_kind, entries))
    values = list(map(_value, entries))
    try:        # every value a ValueRef with an int64 seed: the usual case
        return (keys, seqs, kinds, int64s(list(map(_seed, values))),
                int64s(list(map(_size, values))), {})
    except (AttributeError, StructError):
        pass
    other = {i: values[i] for i in compress(
        count(), map(is_not, map(type, values), repeat(ValueRef)))}
    for i, v in other.items():
        values[i] = ValueRef(0, value_size(v))
    try:
        seeds = int64s(list(map(_seed, values)))
    except StructError:             # a seed outside int64 goes to other
        for i, v in enumerate(values):
            if v.seed not in _INT64:
                other[i] = v
                values[i] = ValueRef(0, v.size)
        seeds = int64s(list(map(_seed, values)))
    return keys, seqs, kinds, seeds, int64s(list(map(_size, values))), other


def row_at(columns: Columns, i: int) -> Entry:
    """Row ``i`` as an entry tuple."""
    keys, seqs, kinds, seeds, sizes, other = columns
    value = other[i] if i in other else ValueRef(seeds[i], sizes[i])
    return keys[i], seqs[i], kinds[i], value


def iter_rows(columns: Columns, start: int = 0) -> Iterator[Entry]:
    """Rows ``start`` onward as entry tuples, built as they are consumed."""
    keys, seqs, kinds, seeds, sizes, other = columns
    values = map(ValueRef, seeds[start:], sizes[start:])
    if other:
        # other.get(row, ref): the row's own value, else its ValueRef.
        values = map(other.get, range(start, len(keys)), values)
    return zip(keys[start:], seqs[start:], kinds[start:], values)


def rows_at(columns: Columns, rows: Sequence[int]) -> list:
    """The rows ``rows`` (indices, ascending or not) as entry tuples, built
    in C-level passes."""
    keys, seqs, kinds, seeds, sizes, other = columns
    values = map(ValueRef, map(seeds.__getitem__, rows),
                 map(sizes.__getitem__, rows))
    if other:
        values = map(other.get, rows, values)
    return list(zip(map(keys.__getitem__, rows), map(seqs.__getitem__, rows),
                    map(kinds.__getitem__, rows), values))


def slice_columns(columns: Columns, start: int, stop: int) -> Columns:
    """Rows ``start`` to ``stop`` as columns of their own."""
    keys, seqs, kinds, seeds, sizes, other = columns
    return (keys[start:stop], seqs[start:stop], kinds[start:stop],
            seeds[start:stop], sizes[start:stop],
            {i - start: v for i, v in other.items() if start <= i < stop})


def concat_columns(parts: Sequence[Columns]) -> Columns:
    """The rows of ``parts``, one after another, as one set of columns."""
    keys: list = []
    seqs, seeds, sizes = array("q"), array("q"), array("q")
    other: dict = {}
    for p in parts:
        if p[5]:
            other.update(zip(map(add, p[5], repeat(len(seqs))),
                             p[5].values()))
        keys += p[0]
        seqs += p[1]
        seeds += p[3]
        sizes += p[4]
    return keys, seqs, b"".join(p[2] for p in parts), seeds, sizes, other


def entry_sizes(columns: Columns) -> list:
    """Each row's :func:`~repro.types.entry_size`, summed in C."""
    return list(map(add, map(len, columns[0]),
                    map(add, columns[4], repeat(ENTRY_OVERHEAD))))


def columns_bytes(columns: Columns) -> int:
    """The rows' summed :func:`~repro.types.entry_size`."""
    return (sum(map(len, columns[0])) + sum(columns[4])
            + ENTRY_OVERHEAD * len(columns[0]))


class ProbeResult(NamedTuple):
    """Outcome of a point probe: the entry (if any) and the I/O it cost."""

    entry: Optional[Entry]
    bytes_read: int
    bloom_negative: bool = False


# Most probes of a lookup miss without I/O; they all return one of these.
_OUT_OF_RANGE = ProbeResult(None, 0)
_FILTERED = ProbeResult(None, 0, bloom_negative=True)


class _FilledOnFirstRead:
    """:attr:`SSTable.bloom`, the per-file filter: the first read fills the
    table's filter and stores it on the table, so every later read is a
    plain attribute load, with no call."""

    def __get__(self, table, owner=None) -> BloomFilter:
        if table is None:
            return self
        bloom = table._bloom
        bloom.add_all(table.columns[0])
        table.bloom = bloom
        return bloom


class SSTable:
    """Immutable sorted table."""

    def __init__(self, file_number: int, entries: Sequence[Entry],
                 block_size: int = 16 * 1024, bloom_bits_per_key: int = 10,
                 entry_bytes: Optional[int] = None):
        """A table of the entry tuples ``entries`` (sorted, key-unique).
        ``entry_bytes`` is the one size all of them share, when the caller
        knows it (a memtable of fixed-size entries), and then no entry is
        sized."""
        columns = to_columns(entries)
        keys = columns[0]
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise ValueError("entries must be sorted and key-unique")
        self._build(file_number, columns, block_size, bloom_bits_per_key,
                    entry_bytes)

    @classmethod
    def from_columns(cls, file_number: int, columns: Columns,
                     block_size: int = 16 * 1024,
                     bloom_bits_per_key: int = 10,
                     entry_bytes: Optional[int] = None) -> "SSTable":
        """A table of the rows ``columns`` (memtable flushes, compaction's
        output files, the Dev-LSM's runs); the table keeps the columns as
        they are.  They must be sorted and key-unique, as a memtable's
        ``columns()`` and the merge make them; this is not checked."""
        table = cls.__new__(cls)
        table._build(file_number, columns, block_size, bloom_bits_per_key,
                     entry_bytes)
        return table

    def _build(self, file_number: int, columns: Columns, block_size: int,
               bloom_bits_per_key: int, entry_bytes: Optional[int]) -> None:
        keys = columns[0]
        if not keys:
            raise ValueError("SSTable cannot be empty")
        self.file_number = file_number
        self.columns = columns
        self.block_size = block_size
        self.smallest = keys[0]
        self.largest = keys[-1]

        if entry_bytes is None:
            sizes = entry_sizes(columns)
            if min(sizes) == max(sizes):
                entry_bytes = sizes[0]
        # The one size every entry has, or None when sizes differ.
        self.entry_bytes = entry_bytes
        # Row where each block begins, and each block's bytes (a 16 KiB
        # block holds three 4,108-byte entries, so a table has a third as
        # many blocks as entries).  A block's first key is read from
        # ``keys``.
        if entry_bytes is not None:
            # Equal sizes make the byte-budget cut below a count: each
            # block takes ``per`` entries, the last one the rest, so the
            # starts are a range and no block's bytes are stored.
            n = len(keys)
            starts = range(0, n, max(1, block_size // entry_bytes))
            block_bytes = None
            self.data_bytes = n * entry_bytes
        else:
            starts = array("q", [0])
            block_bytes = array("q")
            cur = 0
            for i, sz in enumerate(sizes):
                if cur and cur + sz > block_size:
                    starts.append(i)
                    block_bytes.append(cur)
                    cur = 0
                cur += sz
            block_bytes.append(cur)
            self.data_bytes = sum(block_bytes)
        self._block_starts = starts
        self._block_bytes = block_bytes

        # The filter's size depends on the key count alone; its bits are
        # filled on first use (see ``bloom``), so a table no read ever
        # reaches hashes no keys.
        self._bloom = BloomFilter(len(keys), bloom_bits_per_key)
        # File footprint: data + filter + index approximation.
        self.file_bytes = (self.data_bytes + self._bloom.size_bytes
                           + 24 * len(self._block_starts) + 128)

    # -- introspection ----------------------------------------------------
    @property
    def entries(self) -> list:
        """Every row as an entry tuple, built on each access (the codec
        and the tests read tables this way)."""
        return list(iter_rows(self.columns))

    bloom = _FilledOnFirstRead()

    @property
    def num_entries(self) -> int:
        return len(self.columns[0])

    @property
    def num_blocks(self) -> int:
        return len(self._block_starts)

    def overlaps(self, smallest: bytes, largest: bytes) -> bool:
        return not (self.largest < smallest or largest < self.smallest)

    # -- reads -----------------------------------------------------------
    def probe(self, key: bytes,
              kh: Optional[tuple[int, int]] = None) -> ProbeResult:
        """Point lookup with cost accounting: the range test, the filter
        test and :meth:`read_block`, the three steps
        ``DbImpl._get_from_ssts`` takes for each table a lookup reaches.

        Bloom negative => zero I/O.  Otherwise one data block is read.
        ``kh`` is ``key_hash(key)`` when the caller already holds it.
        """
        if not self.smallest <= key <= self.largest:
            return _OUT_OF_RANGE
        if not self.bloom.may_contain_hash(
                kh if kh is not None else key_hash(key)):
            return _FILTERED
        return ProbeResult(*self.read_block(key))

    def read_block(self, key: bytes) -> tuple[Optional[Entry], int]:
        """``(entry or None, bytes)``: the row of ``key``, looked up in the
        one data block that could hold it, and that block's bytes.  For
        a key in the table's range whose filter answered positive."""
        # The last row at or before ``key`` lies in the block that could
        # hold it, since blocks are runs of consecutive rows.
        keys = self.columns[0]
        i = bisect_right(keys, key) - 1
        cost = self.block_bytes(bisect_right(self._block_starts, i) - 1)
        if keys[i] == key:
            return row_at(self.columns, i), cost
        return None, cost

    def lower_bound(self, key: bytes) -> int:
        """Row index of the first key >= ``key``."""
        return bisect_left(self.columns[0], key)

    def iter_from(self, key: Optional[bytes] = None) -> Iterator[Entry]:
        start = 0 if key is None else self.lower_bound(key)
        return iter_rows(self.columns, start)

    def block_of_entry(self, idx: int) -> int:
        """Block index containing entry ``idx`` (for scan I/O accounting)."""
        return bisect_right(self._block_starts, idx) - 1

    def block_bytes(self, block_idx: int) -> int:
        if self._block_bytes is not None:
            return self._block_bytes[block_idx]
        starts = self._block_starts
        start = starts[block_idx]
        return (min(start + starts.step, len(self.columns[0])) - start
                ) * self.entry_bytes

    # -- serialization (tests / durability example) --------------------------
    def to_bytes(self) -> bytes:
        return encode_block(self.entries)

    @classmethod
    def from_bytes(cls, file_number: int, data: bytes,
                   block_size: int = 16 * 1024,
                   bloom_bits_per_key: int = 10) -> "SSTable":
        return cls(file_number, decode_block(data), block_size, bloom_bits_per_key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SSTable(#{self.file_number}, n={self.num_entries}, "
                f"[{self.smallest!r}..{self.largest!r}])")
