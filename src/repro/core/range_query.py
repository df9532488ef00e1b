"""Range queries across the hybrid interfaces (paper Section V-F).

One iterator per interface — the Main-LSM's merging iterator and the
Dev-LSM's NVMe-KV iterator (SEEK + per-NEXT commands, uncached) — joined by
an *iterator comparator* that always advances the side holding the smaller
key and resolves same-key collisions by sequence number.

The Dev-LSM side is the expensive one (every NEXT is an NVMe command plus a
NAND page read), which is why KVACCEL's Table V range-query throughput
trails the pure host LSMs: the comparator is rate-bound by the device
iterator whenever the Dev-LSM is non-empty.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..types import KIND_DELETE, Entry
from .controller import KvaccelController

__all__ = ["DualIterator", "range_query"]


class DualIterator:
    """Comparator-driven merge of the Main-LSM and Dev-LSM iterators."""

    def __init__(self, controller: KvaccelController, prefetch: int = 256):
        self.controller = controller
        self.prefetch = max(1, prefetch)
        self._main_buf: list = []
        self._main_pos = 0
        self._main_exhausted = False
        self._dev_it = None
        self._dev_entry: Optional[Entry] = None

    # -- per-side cursors ------------------------------------------------
    def _refill_main(self, from_key: bytes) -> Generator:
        entries = yield from self.controller.main.scan_internal(
            from_key, self.prefetch, include_tombstones=True)
        self._main_buf = entries
        self._main_pos = 0
        self._main_exhausted = len(entries) < self.prefetch

    def _main_peek(self) -> Optional[Entry]:
        if self._main_pos < len(self._main_buf):
            return self._main_buf[self._main_pos]
        return None

    def _main_advance(self) -> Generator:
        self._main_pos += 1
        if self._main_pos >= len(self._main_buf) and not self._main_exhausted:
            last = self._main_buf[-1][0]
            # resume strictly after the last delivered key
            yield from self._refill_main(last + b"\x00")

    def _dev_advance(self) -> Generator:
        self._dev_entry = yield from self.controller.kv.iter_next(self._dev_it)

    # -- protocol ---------------------------------------------------------
    def seek(self, key: bytes) -> Generator:
        """Position both iterators at the first entry >= ``key`` (steps 1-3)."""
        yield from self._refill_main(key)
        controller = self.controller
        if not controller.kv.is_empty:
            self._dev_it = yield from controller.kv.create_iterator()
            self._dev_entry = yield from controller.kv.iter_seek(self._dev_it,
                                                                 key)
        else:
            self._dev_it = None
            self._dev_entry = None

    def next(self) -> Generator:
        """Return the next live user entry, or None when both sides end.

        Implements the comparator of Fig 10: pick the smaller key; on a
        tie, the higher sequence number wins and the loser is skipped.
        Tombstones suppress the key entirely.
        """
        while True:
            m = self._main_peek()
            d = self._dev_entry
            if m is None and d is None:
                return None
            if d is None or (m is not None and m[0] < d[0]):
                yield from self._main_advance()
                winner = m
            elif m is None or d[0] < m[0]:
                yield from self._dev_advance()
                winner = d
            else:  # same user key: sequence number decides, both advance
                winner = m if m[1] >= d[1] else d
                yield from self._main_advance()
                yield from self._dev_advance()
            if winner[2] == KIND_DELETE:
                continue
            return winner


def range_query(controller: KvaccelController, start_key: bytes,
                count: int) -> Generator:
    """Seek + ``count`` Next()s across both interfaces; list of (key, value).

    The Main-LSM side prefetches in request-sized buffers: small scans must
    not pay for a deep default prefetch (tombstones/shadowing trigger
    refills when more is needed).
    """
    it = DualIterator(controller, prefetch=max(8, min(256, count)))
    yield from it.seek(start_key)
    out = []
    while len(out) < count:
        entry = yield from it.next()
        if entry is None:
            break
        out.append((entry[0], entry[3]))
    return out
