"""Key and value generators for db_bench-style workloads.

Keys are fixed-width big-endian integers (4 B in the paper's Table IV) so
integer order equals byte order.  Values are :class:`~repro.types.ValueRef`
descriptors — exact sizes for every bandwidth computation
without materializing gigabytes of payload (DESIGN.md decision D1).
"""

from __future__ import annotations

import random
from typing import Iterator

from ..types import ValueRef, encode_key

__all__ = ["KeyGenerator", "RandomKeys", "value_for"]


class KeyGenerator:
    """Interface: an infinite stream of keys."""

    def __iter__(self) -> Iterator[bytes]:
        while True:
            yield self.next_key()

    def next_key(self) -> bytes:
        raise NotImplementedError


class RandomKeys(KeyGenerator):
    """Uniform random keys over [0, key_space) — db_bench fillrandom."""

    def __init__(self, key_space: int, key_size: int = 4, seed: int = 1):
        if key_space < 1:
            raise ValueError("key_space must be >= 1")
        self.key_space = key_space
        self.key_size = key_size
        self._rng = random.Random(seed)

    def next_key(self) -> bytes:
        return encode_key(self._rng.randrange(self.key_space), self.key_size)


def value_for(key: bytes, value_size: int) -> ValueRef:
    """Deterministic value descriptor for a key."""
    return ValueRef(int.from_bytes(key, "big"), value_size)
