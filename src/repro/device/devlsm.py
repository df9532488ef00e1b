"""Dev-LSM: the PinK-style LSM-KVS running inside the hybrid SSD.

Section IV/V of the paper: the KV region of the dual-interface SSD is
managed by an in-device LSM run on one ARM Cortex-A9 core of the Cosmos+.
It acts as the temporary write buffer during host write stalls.

Model highlights mirroring the paper:

* device-DRAM memtable, flushed as sorted *runs* into the KV region NAND
  (runs may overlap in key range, like L0 of a host LSM);
* point GETs are slow — no read cache, so every run probed costs a NAND
  page read plus ARM CPU (this is the paper's explanation for Table V's
  range-query gap and for preferring eager rollback under reads);
* an iterator with ``seek``/``next`` and the *bulky range scan*: the whole
  Dev-LSM is serialized and shipped to the host in 512 KB DMA chunks
  (Section V-E, step 5-6), which is what makes rollback fast;
* ``reset`` clears everything after a rollback (step 8).

In-device flush and (optional) compaction use NAND + ARM core only — no
PCIe — so they never contend with the host link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Optional

from ..sim import Environment
from ..types import KIND_PUT, Entry, entry_size
from .cpu import CpuModel
from .ftl import Ftl
from .geometry import KiB, MiB
from .nand import NandArray

__all__ = ["DevLsm", "DevLsmConfig", "Run", "DevIterator"]


@dataclass
class DevLsmConfig:
    """Tuning knobs for the in-device LSM."""

    memtable_bytes: int = 16 * MiB
    dma_chunk_bytes: int = 512 * KiB          # max DMA unit on the platform
    arm_op_cost: float = 15e-6                # ARM CPU per point op (s);
                                              # one ~1 GHz Cortex-A9 core
    arm_byte_cost: float = 8e-9               # ARM CPU per byte (~125 MB/s)
    read_page_bytes: int = 16 * KiB           # NAND read per uncached probe
    read_cache_enabled: bool = False          # the paper's Dev-LSM has none;
                                              # True models the "what if"
                                              # behind Table V's bottleneck
    compaction_enabled: bool = False          # paper disables it for wkld A
    compaction_trigger_runs: int = 8

    def __post_init__(self) -> None:
        if self.memtable_bytes <= 0 or self.dma_chunk_bytes <= 0:
            raise ValueError("sizes must be positive")


@dataclass
class Run:
    """One sorted run flushed into the KV region."""

    entries: list  # sorted by (key, -seq)
    smallest: bytes
    largest: bytes
    nbytes: int


def _sort_key(e: Entry):
    return (e[0], -e[1])


class DevIterator:
    """Snapshot iterator over the Dev-LSM (memtable + runs), newest-wins.

    Built eagerly over a merged snapshot — device iterators in the paper
    walk NAND with no cache, so the *cost* is charged by the owner; the
    functional view here is exact.
    """

    def __init__(self, entries: list):
        self._entries = entries  # deduped, key-ascending
        self._pos = 0

    def seek(self, key: bytes) -> None:
        """Position at the first entry with key >= ``key``."""
        lo, hi = 0, len(self._entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._entries[mid][0] < key:
                lo = mid + 1
            else:
                hi = mid
        self._pos = lo

    def seek_to_first(self) -> None:
        self._pos = 0

    @property
    def valid(self) -> bool:
        return self._pos < len(self._entries)

    def entry(self) -> Entry:
        return self._entries[self._pos]

    def next(self) -> None:
        self._pos += 1


class DevLsm:
    """The in-device LSM over the FTL's KV region."""

    def __init__(
        self,
        env: Environment,
        ftl: Ftl,
        nand: NandArray,
        arm: CpuModel,
        config: Optional[DevLsmConfig] = None,
    ):
        self.env = env
        self.ftl = ftl
        self.nand = nand
        self.arm = arm
        self.config = config or DevLsmConfig()
        self._region = ftl.region("kv")
        self.page_size = ftl.geometry.page_size

        self._memtable: dict[bytes, Entry] = {}
        self._memtable_bytes = 0
        self.runs: list[Run] = []          # newest first
        self._lpns_allocated = 0           # since the last reset
        self.flush_count = 0
        self.compaction_count = 0
        tel = env.telemetry
        if tel is not None:
            tel.gauge("devlsm.bytes", lambda: self.total_bytes)
            tel.gauge("devlsm.entries", lambda: self.entry_count)
            tel.gauge("devlsm.runs", lambda: len(self.runs))

    # -- capacity / stats ------------------------------------------------
    @property
    def entry_count(self) -> int:
        """Upper bound: live memtable entries + run entries (may overlap)."""
        return len(self._memtable) + sum(len(r.entries) for r in self.runs)

    @property
    def total_bytes(self) -> int:
        return self._memtable_bytes + sum(r.nbytes for r in self.runs)

    @property
    def is_empty(self) -> bool:
        return not self._memtable and not self.runs

    def state_digest(self) -> dict:
        """Dev-LSM occupancy for journal digest checkpoints: memtable
        fill plus the per-run shape (newest first)."""
        return {
            "memtable_entries": len(self._memtable),
            "memtable_bytes": self._memtable_bytes,
            "runs": [[len(r.entries), r.nbytes] for r in self.runs],
            "flushes": self.flush_count,
            "compactions": self.compaction_count,
        }

    def key_range(self) -> Optional[tuple[bytes, bytes]]:
        """(smallest, largest) over the whole Dev-LSM, or None if empty."""
        if self.is_empty:
            return None
        smalls, larges = [], []
        if self._memtable:
            keys = self._memtable.keys()
            smalls.append(min(keys))
            larges.append(max(keys))
        for r in self.runs:
            smalls.append(r.smallest)
            larges.append(r.largest)
        return min(smalls), max(larges)

    # -- write path ---------------------------------------------------------
    def put(self, entry: Entry) -> Generator:
        """Insert a PUT or DELETE entry (blocking process generator)."""
        cfg = self.config
        nbytes = entry_size(entry)
        p = self.env.probes
        _sp = p.begin("devlsm", "devlsm.put", "devlsm", {"bytes": nbytes})
        self.arm.charge(cfg.arm_op_cost, tag="devlsm.put")
        key = entry[0]
        old = self._memtable.get(key)
        if old is not None:
            self._memtable_bytes -= entry_size(old)
        self._memtable[key] = entry
        self._memtable_bytes += nbytes
        p.touch("devlsm.put.applied")
        if self._memtable_bytes >= cfg.memtable_bytes:
            yield from self._flush()
        p.end(_sp)
        return None

    def _flush(self) -> Generator:
        """Flush the device memtable as one sorted run into KV NAND."""
        if not self._memtable:
            return
        p = self.env.probes
        _sp = p.begin("devlsm", "devlsm.flush", "devlsm",
                      {"bytes": self._memtable_bytes})
        yield from p.at("devlsm.flush.start")
        # Snapshot, don't swap: the memtable must stay intact until the run
        # is installed.  The flush runs on the calling host process, so a
        # host crash interrupts it mid-I/O — but the device itself did not
        # lose power, and its DRAM must not forget entries a half-finished
        # flush had merely staged.
        snapshot = list(self._memtable.items())
        nbytes = self._memtable_bytes   # the snapshot is the whole memtable
        entries = sorted((e for _k, e in snapshot), key=_sort_key)
        run = Run(entries=entries, smallest=entries[0][0],
                  largest=entries[-1][0], nbytes=nbytes)
        # Map pages in the KV region and charge NAND program + ARM copy.
        pages = max(1, -(-nbytes // self.page_size))
        self.ftl.write_batch(self._alloc_lpn() for _ in range(pages))
        yield from self.arm.consume(nbytes * self.config.arm_byte_cost,
                                    tag="devlsm.flush")
        yield from self.nand.io("program", nbytes)
        # Commit point: install the run, then retire exactly the flushed
        # entries (a concurrent put may have replaced one mid-flush).
        self.runs.insert(0, run)
        retired = nbytes
        for key, entry in snapshot:
            if self._memtable.get(key) is entry:
                del self._memtable[key]
            else:   # replaced mid-flush: put() already released its bytes
                retired -= entry_size(entry)
        self._memtable_bytes -= retired
        self.flush_count += 1
        yield from p.at("devlsm.flush.complete")
        p.end(_sp, {"runs": len(self.runs)})
        if (self.config.compaction_enabled
                and len(self.runs) >= self.config.compaction_trigger_runs):
            yield from self._compact()

    def _alloc_lpn(self) -> int:
        """Next KV-region LPN, sequential from the region start and
        wrapping at its end."""
        region = self._region
        lpn = region.lpn_start + self._lpns_allocated % region.lpn_count
        self._lpns_allocated += 1
        return lpn

    def _compact(self) -> Generator:
        """Merge all runs into one (device-internal, NAND + ARM only)."""
        merged = self._merged_entries(include_memtable=False)
        nbytes = sum(entry_size(e) for e in merged)
        old_bytes = sum(r.nbytes for r in self.runs)
        p = self.env.probes
        _sp = p.begin("devlsm", "devlsm.compact", "devlsm",
                      {"runs": len(self.runs), "bytes": old_bytes})
        yield from self.arm.consume((old_bytes + nbytes) * self.config.arm_byte_cost,
                                    tag="devlsm.compact")
        # Channel burst: the read-back of the old runs and the program of
        # the merged run ride one macro event (device-internal NAND, no
        # PCIe), halving the kernel events per compaction.
        yield from self.nand.io_burst([("read", old_bytes),
                                       ("program", nbytes)])
        if merged:
            self.runs = [Run(entries=merged, smallest=merged[0][0],
                             largest=merged[-1][0], nbytes=nbytes)]
        else:
            self.runs = []
        self.compaction_count += 1
        p.end(_sp)

    # -- read path ----------------------------------------------------------
    def get(self, key: bytes) -> Generator:
        """Point lookup; returns the newest entry or None (yields I/O).

        Every run probed costs a NAND page read — there is no device read
        cache (Table V's explanation).
        """
        cfg = self.config
        yield from self.env.probes.at("devlsm.get")
        self.arm.charge(cfg.arm_op_cost, tag="devlsm.get")
        hit = self._memtable.get(key)
        if hit is not None:
            return hit
        for run in self.runs:
            if run.smallest <= key <= run.largest:
                if not cfg.read_cache_enabled:
                    yield from self.nand.io("read", cfg.read_page_bytes)
                e = _binary_search_run(run.entries, key)
                if e is not None:
                    return e
        return None

    # -- iteration / bulk scan --------------------------------------------
    def _merged_entries(self, include_memtable: bool = True) -> list:
        """Newest-wins merge of memtable + runs, key ascending.

        DELETE tombstones are retained — the host must see them during
        rollback so deletions propagate into Main-LSM.
        """
        best: dict[bytes, Entry] = {}
        for run in reversed(self.runs):  # oldest first, newer overwrite
            for e in run.entries:
                cur = best.get(e[0])
                if cur is None or e[1] > cur[1]:
                    best[e[0]] = e
        if include_memtable:
            for key, e in self._memtable.items():
                cur = best.get(key)
                if cur is None or e[1] > cur[1]:
                    best[key] = e
        return sorted(best.values(), key=_sort_key)

    def create_iterator(self) -> Generator:
        """Open a snapshot iterator.

        Opening reads one page per run to position run cursors; the real
        cost is paid per SEEK/NEXT (``iter_next_cost``) because there is no
        device read cache.
        """
        self.arm.charge(self.config.arm_op_cost, tag="devlsm.iter")
        merged = self._merged_entries()
        if self.runs:
            yield from self.nand.io(
                "read", self.config.read_page_bytes * len(self.runs))
        return DevIterator(merged)

    def iter_next_cost(self) -> Generator:
        """I/O+CPU cost of one Next() on a device iterator.

        Without a device read cache (the paper's hardware), every Next
        pays a NAND page read — the Table V bottleneck.
        """
        self.arm.charge(self.config.arm_op_cost, tag="devlsm.iter")
        if not self.config.read_cache_enabled:
            yield from self.nand.io("read", self.config.read_page_bytes)

    def bulk_scan(self, pcie) -> Generator:
        """Serialize the whole Dev-LSM to the host in 512 KB DMA chunks.

        Returns the full entry list (sorted, newest-wins, tombstones
        included).  Charges: one streaming NAND read of all run bytes, ARM
        serialisation, and one PCIe transfer per chunk.
        """
        merged = self._merged_entries()
        if not merged:
            return []
        total = sum(entry_size(e) for e in merged)
        run_bytes = sum(r.nbytes for r in self.runs)
        if run_bytes:
            yield from self.nand.io("read", run_bytes)
        yield from self.arm.consume(total * self.config.arm_byte_cost,
                                    tag="devlsm.scan")
        chunk = self.config.dma_chunk_bytes
        sizes = []
        remaining = total
        while remaining > 0:
            this = min(chunk, remaining)
            sizes.append(this)
            remaining -= this
        # Macro events: the whole chunk sequence is known up front, so the
        # DMA stream coalesces into one scheduled event per chunk group
        # while the ledger still sees each 512 KB chunk individually.
        yield from pcie.transfer_burst(sizes, direction="rx")
        return merged

    # -- reset / recovery ----------------------------------------------------
    def reset(self) -> None:
        """Drop all state and trim the KV region (post-rollback step 8)."""
        self.env.probes.touch("devlsm.reset")
        self._memtable = {}
        self._memtable_bytes = 0
        self.runs = []
        # Trim exactly the LPNs handed out since the last reset, ascending:
        # a prefix of the region, or all of it once allocation wrapped.
        start = self._region.lpn_start
        used = min(self._lpns_allocated, self._region.lpn_count)
        for lpn in range(start, start + used):
            self.ftl.trim(lpn)
        self._lpns_allocated = 0


def _binary_search_run(entries: list, key: bytes) -> Optional[Entry]:
    """Find the newest entry for ``key`` in a sorted run."""
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if entries[mid][0] < key:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(entries) and entries[lo][0] == key:
        return entries[lo]  # (key, -seq) sort puts newest first
    return None
