"""Metadata Manager (paper Section V-C).

An in-host-memory hash table recording which user keys currently live in
the Dev-LSM.  Read and write paths consult it for membership before
choosing an interface; entries are removed when a newer write lands in
Main-LSM (write path step 3-1) and cleared wholesale after rollback.

Costs follow Table VI: key insert 0.45 us, check 0.20 us, delete 0.28 us —
charged to the host CPU per key, in order, also where a write batch hands
its keys over in one call (``insert_all``, ``settle``).  The table is
volatile: on crash it is lost, and recovery rebuilds it from the
rollback's full Dev-LSM range scan (Section VI-D).
"""

from __future__ import annotations

from itertools import repeat

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
        self.insert_all((key,))

    def insert_all(self, keys) -> None:
        """Mark ``keys`` as living in the Dev-LSM (a redirected batch)."""
        self.host_cpu.charge_all(repeat(INSERT_COST, len(keys)),
                                 tag="metadata")
        self._keys.update(keys)
        self.inserts += len(keys)

    def contains(self, key: bytes) -> bool:
        self.host_cpu.charge(CHECK_COST, tag="metadata")
        self.checks += 1
        return key in self._keys

    def settle(self, keys) -> None:
        """Write-path step 3-1 for a batch bound for Main-LSM: check each
        key and delete it when present (its Main-LSM copy becomes the
        newest), stopping once the table is empty."""
        table = self._keys
        if not table:
            return
        costs = []
        before = len(table)
        for key in keys:
            costs.append(CHECK_COST)
            if key in table:
                table.discard(key)
                costs.append(DELETE_COST)
                if not table:
                    break
        deletes = before - len(table)
        self.checks += len(costs) - deletes
        self.deletes += deletes
        self.host_cpu.charge_all(costs, tag="metadata")

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
