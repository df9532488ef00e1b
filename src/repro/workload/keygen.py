"""Key and value generators for db_bench-style workloads.

Keys are fixed-width big-endian integers (4 B in the paper's Table IV) so
integer order equals byte order.  Values are :class:`~repro.types.ValueRef`
descriptors by default — exact sizes for every bandwidth computation
without materializing gigabytes of payload (DESIGN.md decision D1).
"""

from __future__ import annotations

import random
from typing import Iterator

from ..types import ValueRef, encode_key

__all__ = ["KeyGenerator", "RandomKeys", "ZipfianKeys",
           "HotspotKeys", "value_for"]


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


class ZipfianKeys(KeyGenerator):
    """Zipf-distributed keys, YCSB-style — for reads *and* writes.

    The generator is op-agnostic: it emits a key stream where rank ``r``
    appears with probability proportional to ``1/r**theta``, and callers
    decide what to do with each key.  Skewed *writes* are exactly what a
    multi-tenant serving population sends at an LSM store (a hot shard is
    a write-skew phenomenon), so the cluster layer's tenants draw from
    this stream for puts as well as gets; the regression test in
    ``tests/workload/test_zipfian_skew.py`` pins the top-1% key mass the
    population model relies on.

    Uses the Gray et al. closed-form inverse-transform sampler (the
    YCSB ``ZipfianGenerator`` recurrence) — no harmonic table walk per
    draw, one uniform variate per key.
    """

    def __init__(self, key_space: int, key_size: int = 4, theta: float = 0.99,
                 seed: int = 1):
        if key_space < 1:
            raise ValueError("key_space must be >= 1")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.key_space = key_space
        self.key_size = key_size
        self.theta = theta
        self._rng = random.Random(seed)
        n = key_space
        self._zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        self._zeta2 = 1.0 + 0.5 ** theta
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = ((1 - (2.0 / n) ** (1 - theta))
                     / (1 - self._zeta2 / self._zetan))

    def next_rank(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._zeta2:
            return 1
        return int(self.key_space *
                   ((self._eta * u - self._eta + 1) ** self._alpha))

    def next_key(self) -> bytes:
        rank = min(self.next_rank(), self.key_space - 1)
        return encode_key(rank, self.key_size)


class HotspotKeys(KeyGenerator):
    """YCSB hotspot distribution: ``hot_mass`` of ops hit the first
    ``hot_fraction`` of the key space uniformly; the rest spread uniformly
    over the cold remainder.  A blunter skew than Zipf — two flat tiers —
    which makes "all heat on one range" scenarios easy to aim at a single
    range-routed shard."""

    def __init__(self, key_space: int, key_size: int = 4,
                 hot_fraction: float = 0.1, hot_mass: float = 0.9,
                 seed: int = 1):
        if key_space < 1:
            raise ValueError("key_space must be >= 1")
        if not 0.0 < hot_fraction < 1.0:
            raise ValueError("hot_fraction must be in (0, 1)")
        if not 0.0 < hot_mass < 1.0:
            raise ValueError("hot_mass must be in (0, 1)")
        self.key_space = key_space
        self.key_size = key_size
        self.hot_fraction = hot_fraction
        self.hot_mass = hot_mass
        self.hot_count = max(1, int(key_space * hot_fraction))
        self._rng = random.Random(seed)

    def next_key(self) -> bytes:
        rng = self._rng
        if rng.random() < self.hot_mass:
            rank = rng.randrange(self.hot_count)
        else:
            rank = self.hot_count + rng.randrange(
                max(1, self.key_space - self.hot_count))
            rank = min(rank, self.key_space - 1)
        return encode_key(rank, self.key_size)


def value_for(key: bytes, value_size: int, materialized: bool = False):
    """Deterministic value for a key: ValueRef by default, bytes on demand."""
    seed = int.from_bytes(key, "big")
    ref = ValueRef(seed=seed, size=value_size)
    if materialized:
        from ..types import materialize
        return materialize(ref)
    return ref
