"""Reference model of the write path: the per-key loops that its batch
entry points replaced.

``put_batch`` hands a whole batch to ``RandomKeys.next_ints``,
``MemTable.add_all``, ``DevLsm.put_all``, ``MetadataManager.insert_all``/
``settle`` and ``CpuModel.charge_all``.  Each function here is the loop,
one key at a time, that a batch method stands for; the tests drive both
and require equal state, equal CPU ledgers and, over a whole KVACCEL cell
with these installed in place of the batch methods (``PER_KEY``),
identical tracer and journal records.
"""

from __future__ import annotations

from repro.core import MetadataManager
from repro.core.metadata import DELETE_COST, INSERT_COST
from repro.device import CpuModel, DevLsm
from repro.device.devlsm import ARM_OP_COST
from repro.lsm import DictMemTable
from repro.types import entry_size
from repro.workload import RandomKeys


def random_keys_next_ints(gen: RandomKeys, n: int) -> list:
    """One ``randrange`` a key."""
    return [gen._rng.randrange(gen.key_space) for _ in range(n)]


def cpu_charge_all(cpu: CpuModel, costs, tag: str = "anon") -> None:
    """One ``charge`` a cost."""
    for seconds in costs:
        cpu.charge(seconds, tag=tag)


def dict_memtable_add(mem: DictMemTable, entry) -> None:
    """``DictMemTable``'s insert of one entry, sized by ``entry_size``."""
    key = entry[0]
    old = mem._map.get(key)
    if old is not None:
        if entry[1] < old[1]:
            return
        mem._bytes -= entry_size(old)
    size = entry_size(entry)
    if size != mem.entry_bytes:
        mem.entry_bytes = None if mem._map else size
    mem._map[key] = entry
    mem._bytes += size
    mem._sorted = None


def dict_memtable_add_all(mem: DictMemTable, entries) -> None:
    for entry in entries:
        dict_memtable_add(mem, entry)


def devlsm_put(dl: DevLsm, entry):
    """The Dev-LSM insert of one entry, a generator of its own with its
    ARM charge made before the insert."""
    nbytes = entry_size(entry)
    p = dl.env.probes
    _sp = p.begin("devlsm", "devlsm.put", "devlsm", {"bytes": nbytes})
    dl.arm.charge(ARM_OP_COST, tag="devlsm.put")
    key = entry[0]
    old = dl._memtable.get(key)
    if old is not None:
        dl._memtable_bytes -= entry_size(old)
    dl._memtable[key] = entry
    dl._memtable_bytes += nbytes
    p.touch("devlsm.put.applied")
    if dl._memtable_bytes >= dl.config.memtable_bytes:
        yield from dl._flush()
    p.end(_sp)


def devlsm_put_all(dl: DevLsm, entries):
    for entry in entries:
        yield from devlsm_put(dl, entry)


def metadata_insert_all(md: MetadataManager, keys) -> None:
    """One Table VI insert a key."""
    for key in keys:
        md.host_cpu.charge(INSERT_COST, tag="metadata")
        md._keys.add(key)
        md.inserts += 1


def metadata_settle(md: MetadataManager, keys) -> None:
    """Write-path step 3-1 a key at a time: check while the table is not
    empty, delete when present."""
    for key in keys:
        if not md.is_empty and md.contains(key):
            md.host_cpu.charge(DELETE_COST, tag="metadata")
            md._keys.discard(key)
            md.deletes += 1


# (class, batch method) -> its per-key stand-in.
PER_KEY = {
    (RandomKeys, "next_ints"): random_keys_next_ints,
    (CpuModel, "charge_all"): cpu_charge_all,
    (DictMemTable, "add_all"): dict_memtable_add_all,
    (DevLsm, "put_all"): devlsm_put_all,
    (MetadataManager, "insert_all"): metadata_insert_all,
    (MetadataManager, "settle"): metadata_settle,
}
