"""Metadata Manager (paper Section V-C).

An in-host-memory hash table recording which user keys currently live in
the Dev-LSM.  Read and write paths consult it for membership before
choosing an interface; entries are removed when a newer write lands in
Main-LSM (write path step 3-1) and cleared wholesale after rollback.

Costs follow Table VI: key insert 0.45 us, check 0.20 us, delete 0.28 us —
charged to the host CPU per call.  The table is volatile: on crash it is
lost, and recovery rebuilds it from the rollback's full Dev-LSM range scan
(Section VI-D).
"""

from __future__ import annotations

from ..device.cpu import CpuModel

__all__ = ["MetadataManager"]

# Host CPU per call (s), Table VI.
INSERT_COST = 0.45e-6
CHECK_COST = 0.20e-6
DELETE_COST = 0.28e-6


class MetadataManager:
    """Host hash table: key -> present-in-Dev-LSM."""

    def __init__(self, host_cpu: CpuModel):
        self.host_cpu = host_cpu
        self._keys: set[bytes] = set()
        self.inserts = 0
        self.checks = 0
        self.deletes = 0

    def insert(self, key: bytes) -> None:
        self.host_cpu.charge(INSERT_COST, tag="metadata")
        self._keys.add(key)
        self.inserts += 1

    def contains(self, key: bytes) -> bool:
        self.host_cpu.charge(CHECK_COST, tag="metadata")
        self.checks += 1
        return key in self._keys

    def remove(self, key: bytes) -> None:
        self.host_cpu.charge(DELETE_COST, tag="metadata")
        self._keys.discard(key)
        self.deletes += 1

    def clear(self) -> None:
        self._keys.clear()

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: bytes) -> bool:
        """Membership without the Table VI charge: the rollback's own
        staleness check, not a lookup on the read or write path."""
        return key in self._keys

    @property
    def is_empty(self) -> bool:
        return not self._keys
