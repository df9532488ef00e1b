"""NVMe-KV command interface of the hybrid SSD.

The host talks to the Dev-LSM through these verbs (Section IV): PUT, GET,
DELETE, EXIST, iterator SEEK/NEXT, and the bulk range scan used by rollback.
Each command charges the PCIe link for the command capsule plus payload and
then executes inside the device (ARM core + NAND via :class:`DevLsm`).

This is the "stall path" of Figure 7(a): commands bypass the host file
system and block layer entirely — their only host-side cost is the NVMe
submission, modelled as :data:`HOST_SUBMIT_COST` seconds of host CPU.
"""

from __future__ import annotations

from typing import Generator

from ..faults.registry import DROP, DUPLICATE
from ..sim import Environment
from ..types import KIND_DELETE, entry_size, make_entry, value_size
from .cpu import CpuModel
from .devlsm import DevIterator, DevLsm
from .pcie import PcieLink

__all__ = ["KvDevice"]

# NVMe command capsule + completion overhead on the wire, bytes.
_CAPSULE_BYTES = 64 + 16

# Host CPU per NVMe-KV command (s).
HOST_SUBMIT_COST = 1.5e-6

# Per write verb: its submit site, span name and complete site, built once.
_WRITE_NAMES = {verb: (f"kv.{verb}.submit", f"kv.{verb}", f"kv.{verb}.complete")
                for verb in ("put", "put_batch", "delete")}


class KvDevice:
    """Host-facing NVMe-KV endpoint wired to the in-device LSM."""

    def __init__(
        self,
        env: Environment,
        devlsm: DevLsm,
        pcie: PcieLink,
        host_cpu: CpuModel,
    ):
        self.env = env
        self.devlsm = devlsm
        self.pcie = pcie
        self.host_cpu = host_cpu
        self.command_counts: dict[str, int] = {}
        # Fault-injection accounting: commands dropped on the wire and
        # compound commands executed twice by the device.
        self.lost_commands = 0
        self.duplicated_commands = 0
        # Optional repro.resil.RetryExecutor; None keeps command issue
        # direct (zero-cost).  With one installed, each verb re-executes
        # whole on retryable DeviceErrors — at-least-once issue, safe
        # because every verb is idempotent under same-seq replay.
        self.retry = None

    def _call(self, factory, site: str) -> Generator:
        """One command's generator, through the retry executor when
        present."""
        if self.retry is None:
            return factory()
        return self.retry.call(factory, site=site)

    def _count(self, verb: str) -> None:
        self.command_counts[verb] = self.command_counts.get(verb, 0) + 1
        self.host_cpu.charge(HOST_SUBMIT_COST, tag="nvme_kv")
        self.env.probes.add("kv.commands")

    # -- point commands -----------------------------------------------------
    def _write(self, verb: str, payload: int, entries: list) -> Generator:
        """One write command — PUT, compound PUT or DELETE: ship ``payload``
        bytes over PCIe, then insert ``entries`` into the Dev-LSM.  The
        ``submit`` site fires before anything is device-visible and may DROP
        the command (lost on the wire) or DUPLICATE it (the device executes
        it twice); ``complete`` fires after the last insert."""
        submit, span, complete = _WRITE_NAMES[verb]
        p = self.env.probes
        self._count(verb)
        action = yield from p.at(submit)
        if action is not None and action.kind == DROP:
            self.lost_commands += 1
            return
        args = {"bytes": payload}
        if verb == "put_batch":
            args["records"] = len(entries)
        _sp = p.begin("kv", span, None, args)
        yield from self.pcie.transfer(payload)
        duplicate = action is not None and action.kind == DUPLICATE
        for _ in range(2 if duplicate else 1):
            for entry in entries:
                yield from self.devlsm.put(entry)
        if duplicate:
            self.duplicated_commands += 1
        p.end(_sp)
        yield from p.at(complete)

    def put(self, key: bytes, seq: int, value) -> Generator:
        """KV PUT: ship key+value over PCIe, insert into Dev-LSM (a
        ``None`` value inserts a tombstone)."""
        return self._call(lambda: self._write(
            "put", _CAPSULE_BYTES + len(key) + value_size(value),
            [make_entry(key, seq, value)]), "kv.put")

    def put_batch(self, triples: list) -> Generator:
        """Batched KV PUT via a compound command (HotStorage '19 style).

        ``triples`` is a list of (key, seq, value|None).  One capsule + one
        payload transfer covers the batch; the Dev-LSM still ingests each
        record (per-op ARM cost, flush when the device memtable fills).
        """
        return self._call(lambda: self._write(
            "put_batch",
            _CAPSULE_BYTES + sum(len(k) + value_size(v) for k, _s, v in triples),
            [make_entry(k, s, v) for k, s, v in triples]),
            "kv.put_batch")

    def delete(self, key: bytes, seq: int) -> Generator:
        """KV DELETE: a tombstone entry in the Dev-LSM."""
        return self._call(lambda: self._write(
            "delete", _CAPSULE_BYTES + len(key),
            [make_entry(key, seq, None)]), "kv.delete")

    def get(self, key: bytes) -> Generator:
        """KV GET: returns the newest entry or None."""
        return self._call(lambda: self._get(key), "kv.get")

    def _get(self, key: bytes) -> Generator:
        self._count("get")
        yield from self.env.probes.at("kv.get.submit")
        yield from self.pcie.transfer(_CAPSULE_BYTES + len(key))
        entry = yield from self.devlsm.get(key)
        if entry is not None:
            yield from self.pcie.transfer(value_size(entry[3]),
                                          direction="rx")
        return entry

    def exist(self, key: bytes) -> Generator:
        """KV EXIST: membership probe without value transfer."""
        self._count("exist")
        yield from self.pcie.transfer(_CAPSULE_BYTES + len(key))
        entry = yield from self.devlsm.get(key)
        return entry is not None and entry[2] != KIND_DELETE

    # -- iterators ------------------------------------------------------------
    def create_iterator(self) -> Generator:
        """Open a device iterator (SEEK/NEXT served per-command)."""
        self._count("iter_open")
        yield from self.pcie.transfer(_CAPSULE_BYTES)
        it = yield from self.devlsm.create_iterator()
        return it

    def iter_seek(self, it: DevIterator, key: bytes) -> Generator:
        self._count("iter_seek")
        yield from self.pcie.transfer(_CAPSULE_BYTES + len(key))
        it.seek(key)
        if it.valid:
            yield from self.pcie.transfer(entry_size(it.entry()),
                                          direction="rx")
            return it.entry()
        return None

    def iter_next(self, it: DevIterator) -> Generator:
        """Advance and return the next entry (uncached — Table V's cost)."""
        self._count("iter_next")
        yield from self.pcie.transfer(_CAPSULE_BYTES)
        yield from self.devlsm.iter_next_cost()
        it.next()
        if it.valid:
            yield from self.pcie.transfer(entry_size(it.entry()),
                                          direction="rx")
            return it.entry()
        return None

    # -- bulk ops --------------------------------------------------------------
    def bulk_scan(self) -> Generator:
        """Bulky range scan of the whole Dev-LSM (rollback step 3-6)."""
        return self._call(self._bulk_scan, "kv.bulk_scan")

    def _bulk_scan(self) -> Generator:
        self._count("bulk_scan")
        p = self.env.probes
        yield from p.at("kv.bulk_scan.start")
        _sp = p.begin("kv", "kv.bulk_scan")
        yield from self.pcie.transfer(_CAPSULE_BYTES)
        entries = yield from self.devlsm.bulk_scan(self.pcie)
        if _sp is not None:    # the byte total walks every entry
            p.end(_sp, {"entries": len(entries),
                        "bytes": sum(entry_size(e) for e in entries)})
        yield from p.at("kv.bulk_scan.complete")
        return entries

    def reset(self) -> Generator:
        """Reset the Dev-LSM (rollback step 8)."""
        return self._call(self._reset, "kv.reset")

    def _reset(self) -> Generator:
        self._count("reset")
        p = self.env.probes
        yield from p.at("kv.reset.start")
        yield from self.pcie.transfer(_CAPSULE_BYTES)
        self.devlsm.reset()
        yield from p.at("kv.reset.complete")
        return None

    # -- introspection ----------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return self.devlsm.is_empty

    @property
    def entry_count(self) -> int:
        return self.devlsm.entry_count
