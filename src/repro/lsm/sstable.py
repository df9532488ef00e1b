"""Sorted String Tables.

An SST holds a sorted, key-unique list of entries partitioned into
fixed-byte-budget data blocks, plus an index (first key per block) and a
per-file bloom filter.  Point reads touch the bloom and index in memory
(RocksDB pins them in block cache) and pay device I/O for exactly the data
blocks fetched — :meth:`SSTable.probe` returns the byte count so the DB can
charge the device model.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import islice
from operator import itemgetter, lt
from typing import Iterator, NamedTuple, Optional, Sequence

from ..types import Entry, entry_size
from .bloom import BloomFilter, key_hash
from .codec import decode_block, encode_block

__all__ = ["SSTable", "ProbeResult"]

_key = itemgetter(0)


class ProbeResult(NamedTuple):
    """Outcome of a point probe: the entry (if any) and the I/O it cost."""

    entry: Optional[Entry]
    bytes_read: int
    bloom_negative: bool = False


# Most probes of a lookup miss without I/O; they all return one of these.
_OUT_OF_RANGE = ProbeResult(None, 0)
_FILTERED = ProbeResult(None, 0, bloom_negative=True)


class SSTable:
    """Immutable sorted table."""

    def __init__(self, file_number: int, entries: Sequence[Entry],
                 block_size: int = 16 * 1024, bloom_bits_per_key: int = 10,
                 sizes: Optional[Sequence[int]] = None,
                 entry_bytes: Optional[int] = None):
        """``sizes`` are the entries' :func:`entry_size` s when the caller
        already holds them (compaction sizes mixed-size output once to cut
        files); ``entry_bytes`` is the one size all of them share, when the
        caller knows it (a memtable of fixed-size entries, compaction of
        such tables), and then no entry is sized."""
        if not entries:
            raise ValueError("SSTable cannot be empty")
        self.file_number = file_number
        self.entries = list(entries)
        keys = list(map(_key, self.entries))
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise ValueError("entries must be sorted and key-unique")
        self.block_size = block_size
        self.smallest = keys[0]
        self.largest = keys[-1]

        if entry_bytes is None:
            if sizes is None:
                sizes = list(map(entry_size, self.entries))
            if min(sizes) == max(sizes):
                entry_bytes = sizes[0]
        # The one size every entry has, or None when sizes differ.
        self.entry_bytes = entry_bytes
        # Entry index where each block begins, and each block's bytes: int
        # arrays (a 16 KiB block holds three 4,108-byte entries, so a table
        # has a third as many blocks as entries).  A block's first key is
        # read from ``entries``.
        if entry_bytes is not None:
            # Equal sizes make the byte-budget cut below a count: each
            # block takes ``per`` entries, the last one the rest.
            n = len(keys)
            per = max(1, block_size // entry_bytes)
            starts = array("q", range(0, n, per))
            block_bytes = array("q", [per * entry_bytes]) * (len(starts) - 1)
            block_bytes.append((n - starts[-1]) * entry_bytes)
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
        # probes hashes no keys.
        self._bloom = BloomFilter(len(keys), bloom_bits_per_key)
        # File footprint: data + filter + index approximation.
        self.file_bytes = (self.data_bytes + self._bloom.size_bytes
                           + 24 * len(self._block_starts) + 128)

    # -- introspection ----------------------------------------------------
    @property
    def bloom(self) -> BloomFilter:
        """The per-file filter; its bit array materialises on first access."""
        bloom = self._bloom
        if not bloom.num_added:
            bloom.add_all(e[0] for e in self.entries)
        return bloom

    @property
    def num_entries(self) -> int:
        return len(self.entries)

    @property
    def num_blocks(self) -> int:
        return len(self._block_starts)

    def overlaps(self, smallest: bytes, largest: bytes) -> bool:
        return not (self.largest < smallest or largest < self.smallest)

    # -- reads -----------------------------------------------------------
    def probe(self, key: bytes,
              kh: Optional[tuple[int, int]] = None) -> ProbeResult:
        """Point lookup with cost accounting.

        Bloom negative => zero I/O.  Otherwise one data block is read.
        ``kh`` is ``key_hash(key)`` when the caller already holds it (a
        lookup that probes several files hashes its key once).
        """
        if key < self.smallest or key > self.largest:
            return _OUT_OF_RANGE
        bloom = self._bloom
        if not bloom.num_added:     # first probe of this table fills it
            bloom = self.bloom
        if not bloom.may_contain_hash(
                kh if kh is not None else key_hash(key)):
            return _FILTERED
        # The last entry at or before ``key`` lies in the block that could
        # hold it, since blocks are runs of consecutive entries.
        entries = self.entries
        i = bisect_right(entries, key, key=_key) - 1
        cost = self._block_bytes[bisect_right(self._block_starts, i) - 1]
        if entries[i][0] == key:
            return ProbeResult(entries[i], cost)
        return ProbeResult(None, cost)

    def lower_bound(self, key: bytes) -> int:
        """Entry index of the first key >= ``key``."""
        return bisect_left(self.entries, key, key=_key)

    def iter_from(self, key: Optional[bytes] = None) -> Iterator[Entry]:
        start = 0 if key is None else self.lower_bound(key)
        return iter(self.entries[start:])

    def block_of_entry(self, idx: int) -> int:
        """Block index containing entry ``idx`` (for scan I/O accounting)."""
        return bisect_right(self._block_starts, idx) - 1

    def block_bytes(self, block_idx: int) -> int:
        return self._block_bytes[block_idx]

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
