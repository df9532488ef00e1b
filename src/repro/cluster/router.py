"""Deterministic key placement: which shard owns a key.

The router is a pure function of ``(key, shards, seed)`` — it never
touches the :class:`~repro.sim.Environment`, consumes no randomness at
routing time, and is therefore seed-stable across runs *and* across
processes (unlike ``hash()``, which is salted per interpreter).  That
purity is what lets the parallel cell runner fan cluster cells out over
workers and still merge bit-identical results.

:class:`HashRouter` is a 64-bit mix (FNV-1a fold + splitmix64 finalizer)
of the key bytes and a placement seed, reduced mod N.  It spreads any key
distribution near-uniformly; the placement seed versions the layout, so a
reshard is "same router, new seed".  It exposes ``route`` (one key -> one
shard id) and ``split_batch`` (stable partition of a write batch, shard
ids ascending, intra-shard order preserved) — the partition the cluster's
spec-ordered merge contract is built on (MODEL.md).
"""

from __future__ import annotations

__all__ = ["HashRouter"]

_M64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(h: int) -> int:
    """splitmix64 finalizer: avalanche so ``% shards`` sees all key bits."""
    h &= _M64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _M64
    return h ^ (h >> 31)


class HashRouter:
    """Seed-stable hash placement over ``shards`` shards: a total,
    deterministic key -> shard-id map."""

    def __init__(self, shards: int, seed: int = 0):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self.seed = seed
        self._base = _mix64(_FNV_OFFSET ^ ((seed * _GOLDEN) & _M64))

    def route(self, key: bytes) -> int:
        h = self._base
        for b in key:
            h = ((h ^ b) * _FNV_PRIME) & _M64
        return _mix64(h) % self.shards

    def split_batch(self, pairs: list) -> list:
        """Partition ``[(key, value), ...]`` into ``[(sid, pairs), ...]``.

        Shard ids ascend and each sub-list preserves the batch's original
        relative order, so the split (and the cluster's AllOf merge over
        it) is a pure function of the batch — no dict-iteration or
        completion-order dependence.
        """
        parts: dict[int, list] = {}
        for pair in pairs:
            parts.setdefault(self.route(pair[0]), []).append(pair)
        return [(sid, parts[sid]) for sid in sorted(parts)]

    def __repr__(self) -> str:
        return f"HashRouter(shards={self.shards}, seed={self.seed})"
