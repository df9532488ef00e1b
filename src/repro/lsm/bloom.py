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
import struct
from hashlib import blake2b
from typing import Iterable

__all__ = ["BloomFilter", "key_hash"]

# Every key is hashed by a copy of this state: copying a pre-sized state
# costs less than constructing one per key.
_BLAKE2B_16 = blake2b(digest_size=16)
# A digest's two 64-bit halves ``(h1, h2)``, little-endian on every host.
_HALVES = struct.Struct("<QQ")
_from_bytes = int.from_bytes


def key_hash(key: bytes) -> tuple[int, int]:
    """The two 64-bit hashes ``(h1, h2)`` every filter derives a key's
    probes from.  They depend on the key alone, so one point lookup hashes
    once and probes every candidate file's filter with the same pair."""
    h = _BLAKE2B_16.copy()
    h.update(key)
    h1, h2 = _HALVES.unpack(h.digest())
    return h1, h2 | 1                       # odd => good stride


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
        """Set every key's ``k`` bits; earlier adds stay set.

        Probe ``i`` of a key is bit ``(p + i*s) mod n`` with ``p = h1 mod n``
        and ``s = (h2 | 1) mod n``.  Below ``k*n`` the positions ``p + i*s``
        need no modulo, so a key's probes are one strided slice of a scratch
        of ``k`` rows of ``n`` ASCII digits; the rows are OR-ed into one,
        which read in base 2 is the key set's bits.
        """
        copy = _BLAKE2B_16.copy
        digests = []
        append = digests.append
        for key in keys:
            h = copy()
            h.update(key)
            append(h.digest())
        if not digests:
            return
        n, k = self.num_bits, self.k
        # One spare row lets every slice stop at ``p + k*s``.
        rows = bytearray(b"0") * ((k + 1) * n)
        ones = bytearray(b"1" * k)    # a bytes value is copied per assignment
        for h1, h2 in _HALVES.iter_unpack(b"".join(digests)):
            p = h1 % n
            s = (h2 | 1) % n
            try:
                rows[p:p + k * s:s] = ones
            except ValueError:          # s == 0 (odd n only): every probe is p
                rows[p] = ord("1")
        view = memoryview(rows)
        row = 0                         # '0' | '1' == '1' byte by byte
        for start in range(0, k * n, n):
            row |= _from_bytes(view[start:start + n], "little")
        new = int(row.to_bytes(n, "big"), 2)    # written bit n-1 first
        bits = self._bits
        bits[:] = (_from_bytes(bits, "little") | new).to_bytes(len(bits),
                                                                "little")
        self.num_added += len(digests)

    def may_contain(self, key: bytes) -> bool:
        return self.may_contain_hash(key_hash(key))

    def may_contain_hash(self, kh: tuple[int, int]) -> bool:
        """:meth:`may_contain` for a key whose :func:`key_hash` is ``kh``.

        Stops at the first clear bit.  About half the bits of a filled
        filter are clear, so half the absent keys stop at the first probe,
        which is tested before the stride is computed.  The loop counts
        down with ``while``: a ``range`` would build an iterator a call.
        """
        bits, n = self._bits, self.num_bits
        pos = kh[0] % n
        if not bits[pos >> 3] >> (pos & 7) & 1:
            return False
        step = kh[1] % n
        left = self.k - 1
        while left:
            pos += step
            if pos >= n:
                pos -= n
            if not bits[pos >> 3] >> (pos & 7) & 1:
                return False
            left -= 1
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
