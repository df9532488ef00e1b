"""Crash recovery of the Metadata Manager (paper Section VI-D).

The metadata hash table lives in volatile host memory.  After a crash it is
gone — but every redirected pair is durable in the Dev-LSM's NAND, so
recovery is a forced rollback: range-scan the entire key-value interface,
merge everything back into Main-LSM, and reset.  Afterwards the (empty)
metadata table is trivially consistent: no key lives in the Dev-LSM.

The paper reports 10,000 pairs restored in 1.1 s; the recovery bench
reproduces that measurement on the simulated device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from .controller import KvaccelController
from .rollback import MERGE_BATCH

__all__ = ["recover_after_crash", "RecoveryReport"]


@dataclass
class RecoveryReport:
    entries_recovered: int
    bytes_recovered: int
    elapsed: float


def recover_after_crash(controller: KvaccelController) -> Generator:
    """Rebuild consistency after losing the metadata table.

    Unlike a scheduled rollback there is no metadata snapshot to filter
    stale entries with — the table is gone.  Each scanned entry is checked
    against Main-LSM's newest version of that key and merged only if it is
    in fact newer: an LSM memtable must never receive an entry older than
    data already below it, or reads would return the stale copy.
    """
    env = controller.env
    t0 = env.now
    p = env.probes
    _sp = p.begin("recovery", "recovery.metadata", "recovery")
    yield from p.at("recovery.start")
    controller.metadata.drop()
    scanned = yield from controller.kv.bulk_scan()
    p.touch("recovery.scan.done")
    entries = []
    for e in scanned:
        current = yield from controller.main.get_internal(e[0])
        if current is None or e[1] > current[1]:
            entries.append(e)
    nbytes = 0
    for i in range(0, len(entries), MERGE_BATCH):
        chunk = entries[i:i + MERGE_BATCH]
        nbytes += yield from controller.main.write_entries(chunk)
        p.add("recovery.entries", len(chunk))
        p.touch("recovery.merge.batch")
    yield from controller.kv.reset()
    controller.metadata.clear()
    p.touch("recovery.complete")
    p.end(_sp, {"entries": len(entries), "bytes": nbytes})
    return RecoveryReport(
        entries_recovered=len(entries),
        bytes_recovered=nbytes,
        elapsed=env.now - t0,
    )
