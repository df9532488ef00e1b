"""Key and value generators for db_bench-style workloads.

Keys are fixed-width big-endian integers (4 B in the paper's Table IV) so
integer order equals byte order.  Values are :class:`~repro.types.ValueRef`
descriptors — exact sizes for every bandwidth computation
without materializing gigabytes of payload (DESIGN.md decision D1).
"""

from __future__ import annotations

import random
from struct import Struct
from typing import Iterator

from ..types import ValueRef, encode_key

__all__ = ["KeyGenerator", "RandomKeys", "value_for"]

# 32-bit Mersenne Twister words drawn per refill of a RandomKeys buffer,
# as one ``getrandbits`` call, and their little-endian unpacking.
_DRAW_WORDS = 256
_WORDS = Struct(f"<{_DRAW_WORDS}I")


class KeyGenerator:
    """Interface: an infinite stream of keys."""

    def __iter__(self) -> Iterator[bytes]:
        while True:
            yield self.next_key()

    def next_key(self) -> bytes:
        raise NotImplementedError


class RandomKeys(KeyGenerator):
    """Uniform random keys over [0, key_space) — db_bench fillrandom.

    The stream is exactly ``random.Random(seed).randrange(key_space)``
    drawn once per key, produced in bulk: for ``k = key_space.bit_length()
    <= 32``, ``randrange`` takes one 32-bit word shifted right by
    ``32 - k`` (``getrandbits(k)``) and draws again while that is
    ``>= key_space``.  ``getrandbits(32 * m)`` returns ``m`` such words,
    the first in the lowest bits, so a refill clears the low ``32 - k``
    bits of every word and shifts the whole integer right by that much
    (each word's draw moves down inside its own 32 bits), unpacks the
    draws, rejects, and keeps what the caller did not take for the next
    call.  A space wider than 32 bits raises: each of its draws takes
    several words, and 4-byte keys never need one.
    """

    def __init__(self, key_space: int, key_size: int = 4, seed: int = 1):
        if key_space < 1:
            raise ValueError("key_space must be >= 1")
        bits = key_space.bit_length()
        if bits > 32:
            raise ValueError("key_space must be below 2**32 (one 32-bit "
                             "word a draw)")
        self.key_space = key_space
        self.key_size = key_size
        self._rng = random.Random(seed)
        self._shift = shift = 32 - bits
        self._mask = int.from_bytes(
            ((1 << 32) - (1 << shift)).to_bytes(4, "little") * _DRAW_WORDS,
            "little")
        self._ints: list[int] = []       # drawn and accepted
        self._at = 0                     # the next one to hand out

    def _refill(self) -> list:
        """The accepted draws of the next ``_DRAW_WORDS`` words."""
        words = self._rng.getrandbits(32 * _DRAW_WORDS)
        space = self.key_space
        return [r for r in _WORDS.unpack(((words & self._mask) >> self._shift)
                                         .to_bytes(4 * _DRAW_WORDS, "little"))
                if r < space]

    def next_ints(self, n: int) -> list[int]:
        """The next ``n`` keys of the stream, as integers."""
        ints, at = self._ints, self._at
        while len(ints) - at < n:
            ints = ints[at:] + self._refill()
            at = 0
        self._ints, self._at = ints, at + n
        return ints[at:at + n]

    def next_key(self) -> bytes:
        return encode_key(self.next_ints(1)[0], self.key_size)


def value_for(key: bytes, value_size: int) -> ValueRef:
    """Deterministic value descriptor for a key."""
    return ValueRef(int.from_bytes(key, "big"), value_size)
