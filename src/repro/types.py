"""Shared key-value primitives used by both the host LSM and the device.

Entries travel the system as plain tuples for speed on the hot path::

    (key: bytes, seq: int, kind: int, value: bytes | ValueRef | None)

Ordering is by user key (lexicographic bytes) and, within a key, by
sequence number descending (newer first) — the standard LSM internal-key
order.

Values may be real ``bytes`` or a :class:`ValueRef` descriptor that carries
only a (seed, size) pair.  Descriptors keep multi-gigabyte simulated
workloads in a few MB of host RAM while preserving exact sizes for every
bandwidth/latency calculation; ``materialize`` produces deterministic bytes
so functional tests can round-trip either representation.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

__all__ = [
    "KIND_DELETE",
    "KIND_PUT",
    "ValueRef",
    "Value",
    "Entry",
    "value_size",
    "materialize",
    "entry_size",
    "entry_sizes_of",
    "ENTRY_OVERHEAD",
    "encode_key",
    "make_entry",
    "make_entries",
]

KIND_DELETE = 0
KIND_PUT = 1


class ValueRef:
    """A size-preserving stand-in for a value payload.

    A value object: equal to another ValueRef with the same fields, hashed
    by them.  Built once per write op, so it is a slotted class with a
    plain ``__init__`` (a frozen dataclass costs ~3x more to construct).
    """

    __slots__ = ("seed", "size")

    def __init__(self, seed: int, size: int):
        if size < 0:
            raise ValueError("size must be >= 0")
        self.seed = seed
        self.size = size

    def __eq__(self, other):
        if other.__class__ is not ValueRef:
            return NotImplemented
        return self.seed == other.seed and self.size == other.size

    def __hash__(self) -> int:
        return hash((self.seed, self.size))

    def __repr__(self) -> str:
        return f"ValueRef(seed={self.seed!r}, size={self.size!r})"


Value = Union[bytes, ValueRef, None]
Entry = tuple  # (key, seq, kind, value)


def value_size(value: Value) -> int:
    """Payload size in bytes for either representation."""
    if value is None:
        return 0
    if isinstance(value, ValueRef):
        return value.size
    return len(value)


def materialize(value: Value) -> bytes:
    """Produce the actual bytes of a value (deterministic for ValueRef)."""
    if value is None:
        return b""
    if isinstance(value, bytes):
        return value
    out = bytearray()
    counter = 0
    while len(out) < value.size:
        out += hashlib.sha256(f"{value.seed}:{counter}".encode()).digest()
        counter += 1
    return bytes(out[: value.size])


# Fixed metadata of an entry's on-media footprint: RocksDB's internal key
# suffix (sequence + type packed in 8 bytes).
ENTRY_OVERHEAD = 8


def entry_size(entry: Entry) -> int:
    """On-media footprint of an entry: key + value + ``ENTRY_OVERHEAD``.

    Sized inline (the hottest call in a cell); agrees with
    :func:`value_size` for every ``Value``.
    """
    value = entry[3]
    if type(value) is ValueRef:
        return len(entry[0]) + value.size + ENTRY_OVERHEAD
    if value is None:
        return len(entry[0]) + ENTRY_OVERHEAD
    return len(entry[0]) + len(value) + ENTRY_OVERHEAD


def entry_sizes_of(entries) -> list:
    """Each entry's :func:`entry_size`, sized inline in one pass (a write
    batch's entries)."""
    return [len(key) + ENTRY_OVERHEAD + (
                value.size if type(value) is ValueRef
                else 0 if value is None else len(value))
            for key, _seq, _kind, value in entries]


def encode_key(n: int, width: int = 4) -> bytes:
    """Fixed-width big-endian key encoding (db_bench uses 4 B keys here).

    Big-endian keeps integer order == lexicographic byte order.
    """
    if n < 0:
        raise ValueError("key ints must be >= 0")
    return n.to_bytes(width, "big")


def make_entry(key: bytes, seq: int, value: Value,
               kind: Optional[int] = None) -> Entry:
    """Build an entry tuple; kind defaults to PUT unless value is None."""
    if kind is None:
        kind = KIND_DELETE if value is None else KIND_PUT
    return (key, seq, kind, value)


def make_entries(pairs, seqs) -> list:
    """``make_entry(key, seq, value)`` of each ``(key, value)`` of
    ``pairs`` with the matching sequence number of ``seqs`` (a write
    batch's ``range``)."""
    return [(key, seq, KIND_DELETE if value is None else KIND_PUT, value)
            for (key, value), seq in zip(pairs, seqs)]
