"""The host LSM's memtable.

:class:`DictMemTable` is a hash map with a lazily re-sorted view.  Point
ops are O(1); sorted iteration pays one sort when the table was mutated
since the last sort.  That is the fast choice for the fillrandom-style
workloads the paper benchmarks.  A skiplist, the structure RocksDB uses,
is the property tests' reference (``tests/memtable_reference.py``).

It stores internal entries ``(key, seq, kind, value)`` and implements
newest-wins per user key (an insert with a higher seq shadows the old one;
the shadowed entry's bytes are released).
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Iterator, Optional

from ..types import Entry, entry_size, entry_sizes_of
from .sstable import Columns, dict_columns

__all__ = ["DictMemTable"]

_key = itemgetter(0)


class DictMemTable:
    """Hash-map memtable with a lazily sorted snapshot."""

    def __init__(self) -> None:
        self._map: dict[bytes, Entry] = {}
        self._bytes = 0
        self._sorted: Optional[list] = None
        # The one ``entry_size`` every entry added so far has; None when
        # the table is empty or sizes differed.
        self.entry_bytes: Optional[int] = None

    def add(self, entry: Entry) -> None:
        self.add_all((entry,))

    def add_all(self, entries) -> None:
        """Insert ``entries`` in order; an entry older than the one its
        key holds (a stale rollback re-insert) is ignored."""
        table = self._map
        total = self._bytes
        same = self.entry_bytes
        added = False
        for entry, size in zip(entries, entry_sizes_of(entries)):
            key = entry[0]
            old = table.get(key)
            if old is not None:
                if entry[1] < old[1]:
                    continue  # stale write (rollback re-inserts); keep newest
                total -= entry_size(old)
            if size != same:
                # The first entry sets it; any other size clears it for
                # good, even when an overwrite leaves the remaining sizes
                # equal.
                same = None if table else size
            table[key] = entry
            total += size
            added = True
        self._bytes = total
        self.entry_bytes = same
        if added:
            self._sorted = None

    def get(self, key: bytes) -> Optional[Entry]:
        return self._map.get(key)

    def __len__(self) -> int:
        return len(self._map)

    @property
    def approximate_bytes(self) -> int:
        """Exactly the summed ``entry_size`` of ``entries()``; flush
        charges CPU from it instead of re-sizing the sealed entries."""
        return self._bytes

    def entries(self) -> list:
        """All live entries sorted by key ascending."""
        if self._sorted is None:
            self._sorted = sorted(self._map.values(), key=_key)
        return self._sorted

    def columns(self) -> Columns:
        """``entries()`` as SSTable columns (what a flush builds); when every
        entry has one size, no value is sized."""
        return dict_columns(self._map, self.entry_bytes)

    def iter_from(self, key: bytes) -> Iterator[Entry]:
        """Iterate entries with key >= ``key`` in ascending key order."""
        ents = self.entries()
        return iter(ents[bisect_left(ents, key, key=_key):])
