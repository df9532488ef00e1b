"""Reference model of the memtable: a probabilistic skiplist.

``SkipListMemTable`` is the structure RocksDB's memtable uses: O(log n)
everywhere, fully incremental sorted iteration.  ``repro.lsm.DictMemTable``
is a hash map with a lazily sorted view instead; the property tests drive
both with the same entries and require every answer to agree.  Both store
internal entries ``(key, seq, kind, value)`` and keep the newest per user
key (an insert with a higher seq shadows the old one and releases its
bytes; an older one is ignored).
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.types import Entry, entry_size

_MAX_LEVEL = 16
_P = 0.25


class _Node:
    __slots__ = ("key", "entry", "forward")

    def __init__(self, key: Optional[bytes], entry: Optional[Entry], level: int):
        self.key = key
        self.entry = entry
        self.forward: list[Optional["_Node"]] = [None] * level


class SkipListMemTable:
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

    def add(self, entry: Entry) -> None:
        self.add_all((entry,))

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
