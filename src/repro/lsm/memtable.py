"""MemTable implementations for the host LSM.

Two interchangeable implementations:

* :class:`DictMemTable` (default) — hash map with a lazily re-sorted view.
  Point ops are O(1); sorted iteration pays one sort when the table was
  mutated since the last sort.  This is the fast choice for the
  fillrandom-style workloads the paper benchmarks (guide idiom: optimize
  the measured bottleneck, keep the rest simple).
* :class:`SkipListMemTable` — a classic probabilistic skiplist, the
  structure RocksDB actually uses.  O(log n) everywhere, fully incremental
  sorted iteration.  Kept both as documentation and as a cross-check: the
  property tests drive both against each other.

Both store internal entries ``(key, seq, kind, value)`` and implement
newest-wins per user key (an insert with a higher seq shadows the old one;
the shadowed entry's bytes are released).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from operator import itemgetter
from typing import Iterator, Optional

from ..types import Entry, entry_size, entry_sizes_of
from .sstable import Columns, dict_columns, to_columns

__all__ = ["MemTable", "DictMemTable", "SkipListMemTable"]

_key = itemgetter(0)


class MemTable:
    """Interface: approximate size tracking + newest-wins point ops."""

    # The one ``entry_size`` every entry added so far has, when an
    # implementation tracks it; None when it does not or sizes differed.
    entry_bytes: Optional[int] = None

    def add(self, entry: Entry) -> None:
        self.add_all((entry,))

    def add_all(self, entries) -> None:
        """Insert ``entries`` in order; an entry older than the one its
        key holds (a stale rollback re-insert) is ignored."""
        raise NotImplementedError

    def get(self, key: bytes) -> Optional[Entry]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def approximate_bytes(self) -> int:
        """Exactly the summed ``entry_size`` of ``entries()``; flush
        charges CPU from it instead of re-sizing the sealed entries."""
        raise NotImplementedError

    def entries(self) -> list:
        """All live entries sorted by key ascending."""
        raise NotImplementedError

    def columns(self) -> Columns:
        """``entries()`` as SSTable columns (what a flush builds)."""
        return to_columns(self.entries())

    def iter_from(self, key: bytes) -> Iterator[Entry]:
        """Iterate entries with key >= ``key`` in ascending key order."""
        raise NotImplementedError


class DictMemTable(MemTable):
    """Hash-map memtable with a lazily sorted snapshot."""

    def __init__(self) -> None:
        self._map: dict[bytes, Entry] = {}
        self._bytes = 0
        self._sorted: Optional[list] = None

    def add_all(self, entries) -> None:
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
        return self._bytes

    def entries(self) -> list:
        if self._sorted is None:
            self._sorted = sorted(self._map.values(), key=_key)
        return self._sorted

    def columns(self) -> Columns:
        return dict_columns(self._map)

    def iter_from(self, key: bytes) -> Iterator[Entry]:
        ents = self.entries()
        return iter(ents[bisect_left(ents, key, key=_key):])


_MAX_LEVEL = 16
_P = 0.25


class _Node:
    __slots__ = ("key", "entry", "forward")

    def __init__(self, key: Optional[bytes], entry: Optional[Entry], level: int):
        self.key = key
        self.entry = entry
        self.forward: list[Optional["_Node"]] = [None] * level


class SkipListMemTable(MemTable):
    """Probabilistic skiplist memtable (RocksDB's default structure)."""

    def __init__(self, seed: int = 0x5EED) -> None:
        self._head = _Node(None, None, _MAX_LEVEL)
        self._level = 1
        self._rng = random.Random(seed)
        self._len = 0
        self._bytes = 0

    def _random_level(self) -> int:
        lvl = 1
        while lvl < _MAX_LEVEL and self._rng.random() < _P:
            lvl += 1
        return lvl

    def _find_prev(self, key: bytes) -> list:
        update = [self._head] * _MAX_LEVEL
        node = self._head
        for i in range(self._level - 1, -1, -1):
            nxt = node.forward[i]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[i]
            update[i] = node
        return update

    def add_all(self, entries) -> None:
        for entry in entries:
            key = entry[0]
            update = self._find_prev(key)
            candidate = update[0].forward[0]
            if candidate is not None and candidate.key == key:
                old = candidate.entry
                if entry[1] < old[1]:
                    continue
                self._bytes += entry_size(entry) - entry_size(old)
                candidate.entry = entry
                continue
            lvl = self._random_level()
            if lvl > self._level:
                self._level = lvl
            node = _Node(key, entry, lvl)
            for i in range(lvl):
                node.forward[i] = update[i].forward[i]
                update[i].forward[i] = node
            self._len += 1
            self._bytes += entry_size(entry)

    def get(self, key: bytes) -> Optional[Entry]:
        node = self._head
        for i in range(self._level - 1, -1, -1):
            nxt = node.forward[i]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[i]
        nxt = node.forward[0]
        if nxt is not None and nxt.key == key:
            return nxt.entry
        return None

    def __len__(self) -> int:
        return self._len

    @property
    def approximate_bytes(self) -> int:
        return self._bytes

    def entries(self) -> list:
        out = []
        node = self._head.forward[0]
        while node is not None:
            out.append(node.entry)
            node = node.forward[0]
        return out

    def iter_from(self, key: bytes) -> Iterator[Entry]:
        update = self._find_prev(key)
        node = update[0].forward[0]
        while node is not None:
            yield node.entry
            node = node.forward[0]
