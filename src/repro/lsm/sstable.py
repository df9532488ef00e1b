"""Sorted String Tables.

An SST holds a sorted, key-unique run of entries partitioned into
fixed-byte-budget data blocks, plus an index (first row per block) and a
per-file bloom filter.  Point reads touch the bloom and index in memory
(RocksDB pins them in block cache) and pay device I/O for exactly the data
blocks fetched — :meth:`SSTable.read_block` returns the byte count so the
DB can charge the device model.

A table stores its entries as *columns*, row ``i`` being entry ``i``.  The
columns travel as one tuple ``(keys, width, seqs, kinds, sizes, other)``:

* ``keys``: when every key has one width of at most 8 bytes (``width``),
  the keys read as big-endian integers, in one unsigned ``array`` (``'I'``
  for 4-byte keys); integer order is then byte order, so ``bisect`` runs
  over it.  Otherwise (keys of several widths: only the tests write
  them) ``width`` is None and ``keys`` is the list of key ``bytes``;
* ``seqs``: sequence numbers, ``array('q')``;
* ``kinds``: ``bytes``, one kind a row;
* ``sizes``: the value size of every row (a ``ValueRef``'s size, a
  ``bytes`` value's length, 0 for a tombstone), as one ``int`` when the
  rows share it, else an ``array('q')``;
* ``other``: ``{row: value}`` for each row whose value is not
  ``ValueRef(key integer, size)`` (tombstones, ``bytes``, a seed that is
  not the key).

A row's seed is implied: every program path writes ``value_for(key,
size)``, whose seed is the key read as an integer.  A fixed-size row with
a 4-byte key holds 13 bytes (key 4, sequence 8, kind 1), where the key
``bytes`` list and the seed and size arrays held about 73, and a list of
entry tuples about 217.  Entry tuples, with ``bytes`` keys, are built only
at the table's edge: a probe hit, :meth:`SSTable.iter_from` and
:attr:`SSTable.entries`.  Compaction merges the columns themselves
(``compaction.merge_columns``).  The Dev-LSM's runs are tables too, built
and merged the same way.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, count, islice, repeat
from operator import add, attrgetter, itemgetter, lt, ne
from struct import Struct, pack
from sys import byteorder
from typing import Iterator, NamedTuple, Optional, Sequence

from ..types import ENTRY_OVERHEAD, Entry, ValueRef, value_size
from .bloom import BloomFilter, key_hash
from .codec import decode_block, encode_block

__all__ = ["SSTable", "ProbeResult", "columns_bytes", "concat_columns",
           "dict_columns", "entry_sizes", "iter_rows", "key_list",
           "lower_bound", "packed", "row_at", "rows_at", "size_column",
           "slice_columns", "to_columns"]

_key, _seq, _kind, _value = map(itemgetter, range(4))
_seed = attrgetter("seed")
_size = attrgetter("size")
_from_bytes = int.from_bytes
_to_bytes = int.to_bytes
# Array items are stored in the host's byte order; keys are big-endian.
_SWAP = byteorder == "little"
# The array typecode a key integer of each width (1-8 bytes) is stored in.
_TYPECODE = {width: next(code for code in "BHIQ"
                         if array(code).itemsize >= width)
             for width in range(1, 9)}

# (keys, width, seqs, kinds, sizes, other); see the module docstring.
Columns = tuple


def packed(typecode: str, values: Sequence[int]) -> array:
    """``values`` as an ``array(typecode)``, packed through ``struct``:
    twice as fast as ``array(typecode, values)``, which parses each item
    apart."""
    out = array(typecode)
    out.frombytes(pack(f"{len(values)}{typecode}", *values))
    return out


def to_columns(entries: Sequence[Entry]) -> Columns:
    """Entry tuples as columns, in C-level passes; a Python loop runs only
    over the rows that go to ``other``."""
    return _columns(list(map(_key, entries)), entries)


def dict_columns(table: dict, entry_bytes: Optional[int] = None) -> Columns:
    """The entries of ``table`` (key -> entry tuple: a memtable) as
    columns, key ascending.  Sorting the keys alone orders the rows.
    ``entry_bytes`` is the one ``entry_size`` every entry has, when the
    caller knows it (a memtable of fixed-size entries); no value is then
    sized."""
    keys = sorted(table)
    return _columns(keys, list(map(table.__getitem__, keys)), entry_bytes)


def _columns(keys: list, entries: Sequence[Entry],
             entry_bytes: Optional[int] = None) -> Columns:
    """Columns of ``entries``, whose keys ``keys`` already are."""
    column, width = _key_column(keys)
    seqs = packed("q", list(map(_seq, entries)))
    kinds = bytes(map(_kind, entries))
    values = list(map(_value, entries))
    seeds = column if width else list(map(_from_bytes, keys, repeat("big")))
    sizes = None
    if width and entry_bytes is not None:
        sizes = entry_bytes - width - ENTRY_OVERHEAD
    try:        # every value a ValueRef: the usual case
        foreign = list(map(ne, map(_seed, values), seeds))
        if sizes is None:
            sizes = list(map(_size, values))
    except AttributeError:
        foreign = list(map(_not_implied, values, seeds))
        if sizes is None:
            sizes = list(map(value_size, values))
    other = {i: values[i] for i in compress(count(), foreign)}
    if sizes.__class__ is not int:
        sizes = size_column(sizes)
    return column, width, seqs, kinds, sizes, other


def _not_implied(value, seed: int) -> bool:
    """Whether ``value`` is not ``ValueRef(seed, its size)``: its row keeps
    it in ``other``."""
    return value.__class__ is not ValueRef or value.seed != seed


def _key_column(keys: list) -> tuple:
    """``(keys, width)``: the key ``bytes`` ``keys`` as one unsigned array
    of big-endian integers when they share one width of 1 to 8 bytes,
    else the list itself and None."""
    widths = set(map(len, keys))
    width = widths.pop() if len(widths) == 1 else 0
    if not 0 < width <= 8:
        return keys, None
    column = array(_TYPECODE[width])
    if column.itemsize == width:
        column.frombytes(b"".join(keys))
        if _SWAP:
            column.byteswap()
    else:
        column.extend(map(_from_bytes, keys, repeat("big")))
    return column, width


def size_column(sizes):
    """A list or ``array('q')`` of value sizes as the column stores them:
    one ``int`` when every row shares it (0 for no rows)."""
    if not sizes:
        return 0
    if min(sizes) == max(sizes):
        return sizes[0]
    return sizes if sizes.__class__ is array else packed("q", sizes)


def key_list(columns: Columns) -> list:
    """Every row's key, as a list of ``bytes``.  The integers are packed
    big-endian in one pass and cut in one ``unpack``.  A table of several
    key widths returns its own list, which must not be changed."""
    keys, width = columns[0], columns[1]
    if width is None:
        return keys
    swapped = keys[:]
    if _SWAP:
        swapped.byteswap()
    pad = keys.itemsize - width
    key = f"{pad}x{width}s" if pad else f"{width}s"
    return list(Struct(key * len(keys)).unpack(swapped.tobytes()))


def key_at(columns: Columns, i: int) -> bytes:
    """Row ``i``'s key."""
    width = columns[1]
    if width is None:
        return columns[0][i]
    return _to_bytes(columns[0][i], width, "big")


def lower_bound(columns: Columns, key: bytes) -> int:
    """Row index of the first key >= ``key``."""
    return _search(columns, key, bisect_left)


def _search(columns: Columns, key: bytes, bisect) -> int:
    """``bisect`` (``bisect_left`` or ``bisect_right``) of ``key`` over the
    key column.  A key of another width than the column's equals no row,
    so either bisect of it is the row of the first key greater."""
    keys, width = columns[0], columns[1]
    if width is None:
        return bisect(keys, key)
    n = len(key)
    if n == width:
        return bisect(keys, _from_bytes(key, "big"))
    if n < width:   # the keys it prefixes sort after it
        return bisect_left(keys, _from_bytes(key, "big") << 8 * (width - n))
    # A key that is a prefix of ``key`` sorts before it.
    return bisect_right(keys, _from_bytes(key[:width], "big"))


def _row(columns: Columns, i: int, key: bytes, seed: int) -> Entry:
    """Row ``i`` as an entry tuple, given its key and implied seed."""
    other = columns[5]
    if i in other:
        value = other[i]
    else:
        sizes = columns[4]
        value = ValueRef(seed, sizes if sizes.__class__ is int else sizes[i])
    return key, columns[2][i], columns[3][i], value


def row_at(columns: Columns, i: int) -> Entry:
    """Row ``i`` as an entry tuple."""
    key = key_at(columns, i)
    seed = columns[0][i] if columns[1] else _from_bytes(key, "big")
    return _row(columns, i, key, seed)


def _key_bytes(keys, width: Optional[int]):
    """``keys`` (a slice or gather of a key column) as ``bytes``, built as
    they are consumed."""
    if width is None:
        return keys
    return map(_to_bytes, keys, repeat(width), repeat("big"))


def _seeds(keys, width: Optional[int]):
    """The implied seeds of ``keys`` (a slice or gather of a key column)."""
    if width is None:
        return map(_from_bytes, keys, repeat("big"))
    return keys


def iter_rows(columns: Columns, start: int = 0) -> Iterator[Entry]:
    """Rows ``start`` onward as entry tuples, built as they are consumed."""
    keys, width, seqs, kinds, sizes, other = columns
    keys = keys[start:]
    values = map(ValueRef, _seeds(keys, width),
                 repeat(sizes) if sizes.__class__ is int else sizes[start:])
    if other:
        # other.get(row, ref): the row's own value, else its ValueRef.
        values = map(other.get, range(start, start + len(keys)), values)
    return zip(_key_bytes(keys, width), seqs[start:], kinds[start:], values)


def rows_at(columns: Columns, rows: Sequence[int]) -> list:
    """The rows ``rows`` (indices, ascending or not) as entry tuples, built
    in C-level passes."""
    keys, width, seqs, kinds, sizes, other = columns
    keys = list(map(keys.__getitem__, rows))
    values = map(ValueRef, _seeds(keys, width),
                 repeat(sizes) if sizes.__class__ is int
                 else map(sizes.__getitem__, rows))
    if other:
        values = map(other.get, rows, values)
    return list(zip(_key_bytes(keys, width), map(seqs.__getitem__, rows),
                    map(kinds.__getitem__, rows), values))


def slice_columns(columns: Columns, start: int, stop: int) -> Columns:
    """Rows ``start`` to ``stop`` as columns of their own."""
    keys, width, seqs, kinds, sizes, other = columns
    if sizes.__class__ is not int:
        sizes = size_column(sizes[start:stop])
    return (keys[start:stop], width, seqs[start:stop], kinds[start:stop],
            sizes,
            {i - start: v for i, v in other.items() if start <= i < stop})


def concat_columns(parts: Sequence[Columns]) -> Columns:
    """The rows of ``parts``, one after another, as one set of columns.
    Parts whose keys share one width join their key arrays; otherwise
    the keys are joined as ``bytes``."""
    parts = [p for p in parts if p[0]]
    widths = {p[1] for p in parts}
    if len(widths) == 1 and None not in widths:
        width = widths.pop()
        keys = array(_TYPECODE[width])
        for p in parts:
            keys += p[0]
    else:
        keys, width = _key_column([k for p in parts for k in key_list(p)])
    seqs = array("q")
    other: dict = {}
    sizes = parts[0][4] if parts else 0
    if any(p[4].__class__ is not int or p[4] != sizes for p in parts):
        sizes = array("q")
        for p in parts:
            part = p[4]
            sizes += (array("q", [part]) * len(p[0])
                      if part.__class__ is int else part)
    for p in parts:
        if p[5]:
            other.update(zip(map(add, p[5], repeat(len(seqs))),
                             p[5].values()))
        seqs += p[2]
    return keys, width, seqs, b"".join(p[3] for p in parts), sizes, other


def entry_sizes(columns: Columns) -> list:
    """Each row's :func:`~repro.types.entry_size`, summed in C."""
    keys, width, sizes = columns[0], columns[1], columns[4]
    n = len(keys)
    lengths = map(len, keys) if width is None else repeat(width, n)
    values = repeat(sizes, n) if sizes.__class__ is int else sizes
    return list(map(add, lengths, map(add, values, repeat(ENTRY_OVERHEAD))))


def columns_bytes(columns: Columns) -> int:
    """The rows' summed :func:`~repro.types.entry_size`."""
    keys, width, sizes = columns[0], columns[1], columns[4]
    n = len(keys)
    key_bytes = sum(map(len, keys)) if width is None else width * n
    value_bytes = sizes * n if sizes.__class__ is int else sum(sizes)
    return key_bytes + value_bytes + ENTRY_OVERHEAD * n


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
        bloom.add_all(key_list(table.columns))
        table.bloom = bloom
        return bloom


class SSTable:
    """Immutable sorted table."""

    def __init__(self, file_number: int, entries: Sequence[Entry],
                 block_size: int = 16 * 1024, bloom_bits_per_key: int = 10):
        """A table of the entry tuples ``entries`` (sorted, key-unique);
        it sizes every entry and finds whether they share one size."""
        columns = to_columns(entries)
        keys = columns[0]
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise ValueError("entries must be sorted and key-unique")
        self._build(file_number, columns, block_size, bloom_bits_per_key)

    @classmethod
    def from_columns(cls, file_number: int, columns: Columns,
                     block_size: int = 16 * 1024,
                     bloom_bits_per_key: int = 10) -> "SSTable":
        """A table of the rows ``columns`` (memtable flushes, compaction's
        output files, the Dev-LSM's runs); the table keeps the columns as
        they are.  They must be sorted and key-unique, as a memtable's
        ``columns()`` and the merge make them; this is not checked."""
        table = cls.__new__(cls)
        table._build(file_number, columns, block_size, bloom_bits_per_key)
        return table

    def _build(self, file_number: int, columns: Columns, block_size: int,
               bloom_bits_per_key: int) -> None:
        keys, width, sizes = columns[0], columns[1], columns[4]
        if not keys:
            raise ValueError("SSTable cannot be empty")
        self.file_number = file_number
        self.columns = columns
        self.block_size = block_size
        self.smallest = key_at(columns, 0)
        self.largest = key_at(columns, len(keys) - 1)

        if width and sizes.__class__ is int:
            # One key width and one value size: no row is sized.
            entry_bytes = width + sizes + ENTRY_OVERHEAD
        else:
            sizes = entry_sizes(columns)
            entry_bytes = sizes[0] if min(sizes) == max(sizes) else None
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
        a key in the table's range whose filter answered positive.  The
        key is read as an integer once; a hit's entry carries ``key``
        itself."""
        # The last row at or before ``key`` lies in the block that could
        # hold it, since blocks are runs of consecutive rows.
        columns = self.columns
        keys, width = columns[0], columns[1]
        if len(key) == width:
            seed = _from_bytes(key, "big")
            i = bisect_right(keys, seed) - 1
            hit = keys[i] == seed
        else:
            seed = _from_bytes(key, "big")
            i = _search(columns, key, bisect_right) - 1
            hit = width is None and keys[i] == key
        cost = self.block_bytes(bisect_right(self._block_starts, i) - 1)
        if hit:
            return _row(columns, i, key, seed), cost
        return None, cost

    def lower_bound(self, key: bytes) -> int:
        """Row index of the first key >= ``key``."""
        return lower_bound(self.columns, key)

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
