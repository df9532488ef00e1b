"""Bloom filter for SSTable key membership.

Standard double-hashing construction (Kirsch-Mitzenmacher): ``k`` probe
positions derived from two independent 64-bit hashes of the key.  RocksDB
builds one filter per SST; a negative probe lets reads skip the file's data
blocks entirely, which is what keeps point-read I/O bounded as levels grow.

The filter's size is a function of the key count alone, so an SSTable can
report its file footprint without hashing a key; it fills the bit array in
one :meth:`BloomFilter.add_all` pass the first time a read probes it.
"""

from __future__ import annotations

import math
from hashlib import blake2b
from typing import Iterable

__all__ = ["BloomFilter"]

_from_bytes = int.from_bytes


def _probe_walk(key: bytes, n: int) -> tuple[int, int]:
    """(first bit, stride) of a key's probes over ``n`` bits.

    Probe ``i`` is bit ``(h1 + i * h2) mod n``; walking it as
    ``pos += h2 mod n`` keeps the loop in small-int arithmetic.
    """
    digest = blake2b(key, digest_size=16).digest()
    return (_from_bytes(digest[:8], "little") % n,
            (_from_bytes(digest[8:], "little") | 1) % n)  # odd => good stride


class BloomFilter:
    """Fixed-size bloom filter with configurable bits/key."""

    def __init__(self, num_keys: int, bits_per_key: int = 10):
        if num_keys < 0:
            raise ValueError("num_keys must be >= 0")
        if bits_per_key < 1:
            raise ValueError("bits_per_key must be >= 1")
        self.num_bits = max(64, num_keys * bits_per_key)
        # optimal k = bits/key * ln2, clamped to [1, 30] like RocksDB
        self.k = max(1, min(30, int(round(bits_per_key * math.log(2)))))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.num_added = 0

    def add(self, key: bytes) -> None:
        self.add_all((key,))

    def add_all(self, keys: Iterable[bytes]) -> None:
        bits, n, probes = self._bits, self.num_bits, range(self.k)
        added = 0
        for key in keys:
            pos, step = _probe_walk(key, n)
            for _ in probes:
                bits[pos >> 3] |= 1 << (pos & 7)
                pos += step
                if pos >= n:
                    pos -= n
            added += 1
        self.num_added += added

    def may_contain(self, key: bytes) -> bool:
        bits, n = self._bits, self.num_bits
        pos, step = _probe_walk(key, n)
        for _ in range(self.k):
            if not bits[pos >> 3] >> (pos & 7) & 1:
                return False
            pos += step
            if pos >= n:
                pos -= n
        return True

    @property
    def size_bytes(self) -> int:
        return self.num_bits // 8

    def false_positive_rate(self) -> float:
        """Expected FP rate for the current fill level."""
        if self.num_added == 0:
            return 0.0
        fill = 1.0 - math.exp(-self.k * self.num_added / self.num_bits)
        return fill ** self.k
