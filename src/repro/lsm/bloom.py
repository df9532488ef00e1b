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

import numpy as np

__all__ = ["BloomFilter", "key_hash"]

_from_bytes = int.from_bytes


def key_hash(key: bytes) -> tuple[int, int]:
    """The two 64-bit hashes ``(h1, h2)`` every filter derives a key's
    probes from.  They depend on the key alone, so one point lookup hashes
    once and probes every candidate file's filter with the same pair."""
    digest = blake2b(key, digest_size=16).digest()
    return (_from_bytes(digest[:8], "little"),
            _from_bytes(digest[8:], "little") | 1)  # odd => good stride


class BloomFilter:
    """Fixed-size bloom filter with configurable bits/key.

    Probe ``i`` of a key is bit ``(h1 + i * h2) mod num_bits``; a filter's
    bits are a function of its keys alone, however they were added.
    """

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
        """Set every key's ``k`` bits: hashed key by key, placed as arrays."""
        digests = [blake2b(key, digest_size=16).digest() for key in keys]
        if not digests:
            return
        n = np.uint64(self.num_bits)
        # One row per key: its :func:`key_hash` pair, before the ``| 1``.
        h = np.frombuffer(b"".join(digests), dtype="<u8").reshape(-1, 2)
        # Both terms below are < 30 * num_bits, far inside uint64.
        first = h[:, :1] % n
        stride = (h[:, 1:] | np.uint64(1)) % n
        probes = (first + stride * np.arange(self.k, dtype=np.uint64)) % n
        mask = np.zeros(len(self._bits) * 8, dtype=np.uint8)
        mask[probes.ravel()] = 1
        bits = np.frombuffer(self._bits, dtype=np.uint8)   # writable view
        bits |= np.packbits(mask, bitorder="little")       # earlier adds stay
        self.num_added += len(digests)

    def may_contain(self, key: bytes) -> bool:
        return self.may_contain_hash(key_hash(key))

    def may_contain_hash(self, kh: tuple[int, int]) -> bool:
        """:meth:`may_contain` for a key whose :func:`key_hash` is ``kh``."""
        bits, n = self._bits, self.num_bits
        pos = kh[0] % n
        step = kh[1] % n
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
