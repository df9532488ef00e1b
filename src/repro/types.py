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
from dataclasses import dataclass
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
    "encode_key",
    "make_entry",
]

KIND_DELETE = 0
KIND_PUT = 1


@dataclass(frozen=True)
class ValueRef:
    """A size-preserving stand-in for a value payload."""

    seed: int
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be >= 0")


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


def entry_size(entry: Entry) -> int:
    """On-media footprint of an entry: key + value + fixed metadata.

    The 8-byte overhead approximates RocksDB's internal key suffix
    (sequence + type packed in 8 bytes).  Sized inline (the hottest call
    in a cell); agrees with :func:`value_size` for every ``Value``.
    """
    value = entry[3]
    if type(value) is ValueRef:
        return len(entry[0]) + value.size + 8
    if value is None:
        return len(entry[0]) + 8
    return len(entry[0]) + len(value) + 8


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
