"""DbImpl — the simulated RocksDB-like host LSM-KVS.

The write path, flush, leveled compaction, write-stall machinery, point
reads and range scans, all running as processes on the DES kernel and
charging the device (PCIe + NAND) and host CPU models.

This is the "Main-LSM" of the paper.  The baselines (plain RocksDB with or
without slowdown, ADOC) and KVACCEL all embed a ``DbImpl``; they differ
only in the policies wrapped around it.

All public operations (``put``, ``get``, ``scan``...) are *process
generators*: drive them with ``yield from`` inside a simulation process, or
``env.run(until=env.process(db.put(...)))`` from test code.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..device.block_dev import BlockDevice
from ..device.cpu import CpuModel
from ..resil.errors import DeviceError
from ..sim import Environment, Event, Interrupt, Store
from ..types import KIND_DELETE, entry_size, entry_sizes_of, make_entries
from .bloom import key_hash
from .compaction import (CompactionJob, CompactionPicker, cut_by_count,
                         merge_for_compaction, split_into_files)
from .fs import FileSystem, FsError, PageCache
from .iterator import merging_iterator
from .memtable import DictMemTable
from .options import LsmOptions
from .sstable import SSTable, columns_bytes
from .version import FileMetadata, VersionEdit, VersionSet
from .wal import Wal
from .write_controller import WriteController, WriteState

__all__ = ["DbImpl", "DbStats"]

_FLUSH_CLOSE = object()

# Host CPU time constants (seconds) of the cost model.  Values are in the
# range measured for RocksDB-class engines on a modern Xeon; the paper's
# efficiency metric depends on the ratios, not the absolute numbers.
CPU_PUT = 4.0e-6                 # WAL encode + memtable insert per op
CPU_GET = 5.0e-6                 # memtable/SST probe logic per op
CPU_SEEK = 12.0e-6               # iterator seek
CPU_NEXT = 1.0e-6                # iterator next
CPU_FLUSH_PER_BYTE = 0.8e-9      # memtable -> SST encode (~1.2 GB/s)
CPU_COMPACT_PER_BYTE = 1.0e-9    # merge per input byte (~1 GB/s Xeon);
                                 # compaction is device-bound, as on the
                                 # paper's testbed (Section VI-A)

# Workers one compaction job is split across (RocksDB defaults to 1; 2
# keeps thread scaling visible without erasing 4-thread stalls).
MAX_SUBCOMPACTIONS = 2

# Sim seconds between the checks of ``wait_for_quiesce``.
QUIESCE_POLL = 0.01


class DbStats:
    """Cumulative counters exposed to the harness."""

    def __init__(self) -> None:
        self.user_writes = 0
        self.user_write_bytes = 0
        self.user_reads = 0
        self.read_hits = 0
        self.user_seeks = 0
        self.user_nexts = 0
        self.flushes = 0
        self.flush_bytes_written = 0
        self.compactions = 0
        self.compaction_bytes_read = 0
        self.compaction_bytes_written = 0
        self.write_latencies: Optional[object] = None   # histogram hook
        self.read_latencies: Optional[object] = None

    def record_write_latency(self, seconds: float, count: int = 1) -> None:
        if self.write_latencies is not None:
            self.write_latencies.record(seconds * 1e6, count)

    def record_read_latency(self, seconds: float) -> None:
        if self.read_latencies is not None:
            self.read_latencies.record(seconds * 1e6)


class DbImpl:
    """The host LSM-KVS engine."""

    def __init__(
        self,
        env: Environment,
        options: LsmOptions,
        device: BlockDevice,
        host_cpu: CpuModel,
        name: str = "db",
        page_cache_bytes: Optional[int] = None,
    ):
        self.env = env
        self.options = options
        self.host_cpu = host_cpu
        self.name = name

        cache_bytes = (page_cache_bytes if page_cache_bytes is not None
                       else 8 * options.write_buffer_size)
        self.page_cache = PageCache(cache_bytes)
        self.fs = FileSystem(device, page_cache=self.page_cache)
        self.versions = VersionSet(options, self.fs)
        self.wal = Wal(self.fs, options.wal_group_commit_bytes,
                       name_prefix=f"{name}.wal")
        self.wal.new_segment()

        self.mem = DictMemTable()
        # Sealed memtables awaiting flush, each with its WAL segment.
        self.imm: list[tuple[DictMemTable, object]] = []
        self._seq = 0
        self.stats = DbStats()

        self.write_controller = WriteController(env, options, self._stall_stats)
        self.picker = CompactionPicker(options)

        self._flush_queue = Store(env)
        self._active_compactions = 0
        self._inflight_compactions: dict = {}   # Process -> CompactionJob
        self._inflight_flush_file = None
        self._bg_wake: Optional[Event] = None
        self._closed = False
        self.background_error: Optional[BaseException] = None
        # Sealed memtables whose flush hit a device error while the DB is
        # in background-error state; resume() re-queues them.  Their WAL
        # segments stay live, so their data remains durable meanwhile.
        self._paused_flushes: list = []

        self._flush_proc = env.process(self._flush_worker(), name=f"{name}.flush")
        self._sched_proc = env.process(self._compaction_scheduler(),
                                       name=f"{name}.compact-sched")

        tel = env.telemetry
        if tel is not None:
            # Pressure gauges behind every stall decision, sampled per
            # bucket; op/byte rates are published inline by the hot paths.
            tel.gauge("lsm.memtable_bytes", lambda: self.mem.approximate_bytes)
            tel.gauge("lsm.imm", lambda: len(self.imm))
            tel.gauge("lsm.l0", lambda: self.versions.current.l0_count)
            tel.gauge("lsm.pending_bytes",
                      lambda: self.versions.current.pending_compaction_bytes(
                          self.options))
            tel.rate("lsm.write_ops")
            tel.rate("lsm.read_ops")
            tel.rate("lsm.flush_bytes")
            tel.rate("lsm.compaction_bytes")

    # ------------------------------------------------------------------ state
    def _stall_stats(self) -> tuple[int, int, int, bool]:
        v = self.versions.current
        return (len(self.imm), v.l0_count,
                v.pending_compaction_bytes(self.options),
                self.mem.approximate_bytes >= self.options.write_buffer_size)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def l0_count(self) -> int:
        return self.versions.current.l0_count

    @property
    def memtable_bytes(self) -> int:
        return self.mem.approximate_bytes

    @property
    def pending_compaction_bytes(self) -> int:
        return self.versions.current.pending_compaction_bytes(self.options)

    @property
    def immutable_count(self) -> int:
        return len(self.imm)

    def next_seqs(self, n: int) -> range:
        """Allocate the next ``n`` sequence numbers, one write batch's."""
        first = self._seq + 1
        self._seq += n
        return range(first, first + n)

    def note_external_seq(self, seq: int) -> None:
        """Keep the global sequence monotonic when another component
        (KVACCEL's controller) allocates sequence numbers."""
        if seq > self._seq:
            self._seq = seq

    def _wake_background(self) -> None:
        ev = self._bg_wake
        if ev is not None and not ev.triggered:
            ev.succeed()

    # --------------------------------------------------------- background error
    @property
    def read_only(self) -> bool:
        """RocksDB-style background-error state: writes are refused until
        :meth:`resume`."""
        return self.background_error is not None

    def set_background_error(self, exc: BaseException) -> None:
        """Latch the first background error (WAL/manifest fsync failure,
        flush or compaction I/O error).  Foreground writes raise it until
        an explicit :meth:`resume` — exactly RocksDB's
        ``SetBGError`` / read-only-mode contract."""
        if self.background_error is not None:
            return
        self.background_error = exc
        p = self.env.probes
        p.touch("db.bg_error.set")
        p.instant("db", "bg_error", None, {"error": str(exc)})

    def resume(self) -> None:
        """Clear the background error (RocksDB ``Resume()``): restart the
        flush worker if the error killed it, re-queue parked flushes, and
        wake the compaction scheduler."""
        if self.background_error is None:
            return
        self.background_error = None
        p = self.env.probes
        p.touch("db.resume")
        p.instant("db", "resume")
        if not self._flush_proc.is_alive and not self._closed:
            self._flush_proc = self.env.process(self._flush_worker(),
                                                name=f"{self.name}.flush")
        for item in self._paused_flushes:
            self._flush_queue.put(item)
        self._paused_flushes = []
        self.write_controller.refresh()
        self._wake_background()

    # ------------------------------------------------------------------ write
    def put(self, key: bytes, value) -> Generator:
        """Insert one key-value pair (process generator)."""
        return self.put_batch([(key, value)])

    def delete(self, key: bytes) -> Generator:
        """Write a tombstone for ``key``: a put of ``None``."""
        return self.put(key, None)

    def put_batch(self, pairs: list) -> Generator:
        """Insert many pairs as one write batch (one gate, one CPU charge);
        a ``None`` value writes a tombstone.

        Latency is recorded per pair as the full batch residence time,
        matching how group-committed writers observe completion.
        """
        t0 = self.env.now
        entries = make_entries(pairs, self.next_seqs(len(pairs)))
        yield from self._write_entries(entries)
        self.stats.record_write_latency(self.env.now - t0, count=len(entries))

    def write_entries(self, entries: list, keep=None) -> Generator:
        """Raw internal-entry write (rollback merges use this to preserve
        original sequence numbers and tombstones).  Returns the logged
        entries' summed :func:`entry_size`, which the write path computes
        anyway.

        ``keep(key)``, if given, decides staleness where the write lands,
        after the gate and CPU yields: an entry it rejects just before the
        WAL append is neither logged nor applied, and one it rejects at the
        memtable insert (stale during the append) is not applied."""
        if entries:
            self.note_external_seq(max([e[1] for e in entries]))
        return (yield from self._write_entries(entries, keep))

    def _write_entries(self, entries: list, keep=None) -> Generator:
        if self._closed:
            raise RuntimeError("db closed")
        if self.background_error is not None:
            raise self.background_error
        opt = self.options
        nbytes = sum(entry_sizes_of(entries))
        p = self.env.probes
        _sp = p.begin("write", "write", None,
                      {"entries": len(entries), "bytes": nbytes})
        # Pre-persistence: the batch exists only in the caller's hands.
        yield from p.at("db.write.gate")
        held = yield from self.write_controller.gate(nbytes)
        yield from self.host_cpu.consume(CPU_PUT * len(entries),
                                         tag=f"{self.name}.write")
        if keep is not None:
            entries = [e for e in entries if keep(e[0])]
            nbytes = sum(entry_sizes_of(entries))
        try:
            yield from self.wal.append(nbytes, records=entries)
        except DeviceError as exc:
            # WAL write/fsync error: the batch is NOT applied (the
            # caller must not consider it acked) and the DB latches
            # into read-only state.
            self.set_background_error(exc)
            raise
        self.mem.add_all(entries if keep is None
                         else [e for e in entries if keep(e[0])])
        p.touch("db.write.applied")
        self.stats.user_writes += len(entries)
        self.stats.user_write_bytes += nbytes
        p.add("lsm.write_ops", len(entries))
        if self.mem.approximate_bytes >= opt.write_buffer_size:
            p.enter("memtable")
            try:
                yield from self._switch_memtable()
            finally:
                p.leave()
        p.end(_sp, {"held": held})
        return nbytes

    def _switch_memtable(self) -> Generator:
        """Seal the active memtable and queue it for flush.

        If the immutable backlog is at its limit, this is exactly the
        memtable write stall: wait (via the gate, which books the stall)
        until a flush drains a slot.  Another writer may complete the
        switch while we wait, in which case there is nothing left to do.
        """
        sealing = self.mem
        limit = max(1, self.options.max_write_buffer_number - 1)
        while len(self.imm) >= limit:
            yield from self.write_controller.gate(0)
            if self.mem is not sealing:
                return  # a concurrent writer already switched
            if len(self.imm) >= limit and self.write_controller.state == WriteState.NORMAL:
                # Conditions cleared mid-check (e.g. mem no longer full);
                # avoid a busy spin by yielding one flush-poll tick.
                yield self.env.timeout(1e-4)
        if self.mem is not sealing:
            return
        try:
            yield from self.wal.sync()
        except DeviceError as exc:
            self.set_background_error(exc)
            raise
        segment = self.wal.current_segment
        self.wal.new_segment()
        sealed = self.mem
        self.mem = DictMemTable()
        self.imm.append((sealed, segment))
        p = self.env.probes
        p.touch("db.memtable.seal")
        p.instant("write", "memtable.seal", None,
                  {"bytes": sealed.approximate_bytes, "imm": len(self.imm)})
        self.write_controller.refresh()
        yield self._flush_queue.put((sealed, segment))

    # ------------------------------------------------------------------ flush
    def _flush_worker(self):
        while True:
            item = None
            try:
                item = yield self._flush_queue.get()
                if item is _FLUSH_CLOSE:
                    return
                if self.background_error is not None:
                    # Read-only mode: park the sealed memtable for
                    # resume(); its WAL segment keeps the data durable.
                    self._paused_flushes.append(item)
                    continue
                mem, segment = item
                yield from self._flush_one(mem, segment)
            except (Interrupt, DeviceError) as exc:
                # Crash or flush I/O error: discard the partially written
                # SST.  After a crash the sealed memtable is volatile and its
                # data comes back from the WAL.  After an I/O error the
                # memtable is parked and background-error latched; unlike an
                # unexpected exception the worker survives, so resume() can
                # simply re-queue the parked work.
                f = self._inflight_flush_file
                self._inflight_flush_file = None
                if f is not None and self.fs.exists(f.name):
                    self.fs.delete(f.name)
                if isinstance(exc, DeviceError):
                    if item is not None and item is not _FLUSH_CLOSE:
                        self._paused_flushes.append(item)
                    self.set_background_error(exc)
            except BaseException as exc:  # surface in foreground path
                self.background_error = exc
                raise

    def _flush_one(self, mem: DictMemTable, segment) -> Generator:
        opt = self.options
        p = self.env.probes
        _sp = p.begin("flush", "flush", None, {"bytes": mem.approximate_bytes})
        yield from p.at("db.flush.start")
        if len(mem):
            columns = mem.columns()
            # A sealed memtable's byte count is its entries' summed size.
            nbytes = mem.approximate_bytes
            yield from self.host_cpu.consume(nbytes * CPU_FLUSH_PER_BYTE,
                                             tag=f"{self.name}.flush")
            number = self.versions.new_file_number()
            table = SSTable.from_columns(
                number, columns, block_size=opt.block_size,
                bloom_bits_per_key=opt.bloom_bits_per_key,
                entry_bytes=mem.entry_bytes)
            f = self.fs.create(self._sst_name(number))
            self._inflight_flush_file = f
            remaining = table.file_bytes
            while remaining > 0:
                chunk = min(opt.compaction_io_chunk, remaining)
                yield from self.fs.append(f, chunk)
                remaining -= chunk
            meta = FileMetadata(number=number, level=0, table=table)
            edit = VersionEdit(added=[meta], reason="flush")
            yield from self.versions.log_and_apply(edit)
            self._inflight_flush_file = None
            p.touch("db.flush.install")
            self.stats.flush_bytes_written += table.file_bytes
            p.add("lsm.flush_bytes", table.file_bytes)
        # Retire the memtable + its WAL segment even if it was empty.
        self.imm = [(m, s) for (m, s) in self.imm if m is not mem]
        self.wal.retire_segment(segment)
        self.stats.flushes += 1
        p.end(_sp)
        self.write_controller.refresh()
        self._wake_background()

    def _sst_name(self, number: int) -> str:
        return f"{self.name}.sst-{number:06d}"

    # ------------------------------------------------------------------ compaction
    def _compaction_scheduler(self):
        while not self._closed:
            while (self._active_compactions
                   < self.options.max_background_compactions
                   and self._start_compaction()):
                pass
            self._bg_wake = self.env.event()
            yield self._bg_wake
            self._bg_wake = None

    def _start_compaction(self) -> bool:
        """Pick and launch one compaction; False when there is none to run.

        A method of its own so that the scheduler's frame, which lives as
        long as the DB, holds no job (and with it no input table) between
        picks.
        """
        if self.background_error is not None:
            return False    # read-only mode: no new background work
        job = self.picker.pick(self.versions.current)
        if job is None:
            return False
        for f in job.all_inputs:
            f.being_compacted = True
        self._active_compactions += 1
        proc = self.env.process(self._compaction_entry(job),
                                name=f"{self.name}.compact-L{job.level}")
        self._inflight_compactions[proc] = job
        return True

    def _compaction_entry(self, job: CompactionJob):
        try:
            yield from self._run_compaction(job)
        except (Interrupt, DeviceError) as exc:
            # Crash or compaction I/O error: the job's work is lost.  Its
            # created-but-uninstalled output files are orphans (RocksDB
            # deletes those on reopen) and its inputs become pickable
            # again.  An I/O error also latches the background error
            # instead of killing the job process tree.
            for meta in job.partial_outputs:
                name = self._sst_name(meta.number)
                if self.fs.exists(name):
                    self.fs.delete(name)
            job.partial_outputs = []
            for meta in job.all_inputs:
                meta.being_compacted = False
            if isinstance(exc, DeviceError):
                self.set_background_error(exc)
        except BaseException as exc:
            self.background_error = exc
            raise
        finally:
            self._active_compactions -= 1
            self._inflight_compactions = {
                p: j for p, j in self._inflight_compactions.items() if j is not job}
            self._wake_background()

    def _run_compaction(self, job: CompactionJob) -> Generator:
        """Execute one compaction: parallel read+merge, then write-out.

        Phase 1 walks input chunks with ``min(MAX_SUBCOMPACTIONS,
        max_background_compactions)`` workers; each chunk's device read (a
        no-op for page-cache-hot inputs such as fresh L0 files) overlaps
        its merge CPU, mirroring RocksDB's subcompaction + readahead
        pipeline.  Phase 2 streams the merged output files to the device.
        The merge phase is what produces the PCIe-silent windows inside
        write stalls (Figs 4/5): inputs served from host cache + CPU-only
        merging leave the link idle until the write burst.
        """
        opt = self.options
        p = self.env.probes
        _sp = p.begin("compaction",
                      f"compaction[L{job.level}->L{job.output_level}]", None,
                      {"level": job.level, "output_level": job.output_level,
                       "input_bytes": job.input_bytes,
                       "inputs": len(job.all_inputs)})
        yield from p.at("db.compact.start")
        merged = merge_for_compaction(job, opt.num_levels)
        # Inputs whose entries share one size give output that shares it:
        # cut it by count and size nothing.
        entry_bytes = job.entry_bytes
        if entry_bytes is not None:
            outputs = cut_by_count(merged, entry_bytes,
                                   opt.target_file_size_base)
            output_bytes = entry_bytes * len(merged[0])
        else:
            outputs = split_into_files(merged, opt.target_file_size_base)
            output_bytes = columns_bytes(merged)
        del merged      # the outputs hold the rows the files need

        input_bytes = job.input_bytes
        self.stats.compaction_bytes_read += input_bytes
        self.stats.compaction_bytes_written += output_bytes
        p.add("lsm.compaction_bytes", input_bytes + output_bytes)

        chunk = opt.compaction_io_chunk
        par = max(1, min(MAX_SUBCOMPACTIONS, opt.max_background_compactions))

        # Phase 1: read + merge input chunks with `par` workers.
        chunks: list = []
        for meta in job.all_inputs:
            f = self.fs.open(self._sst_name(meta.number))
            pos = 0
            while pos < f.size:
                n = min(chunk, f.size - pos)
                chunks.append((f, pos, n))
                pos += n
        cursor = [0]

        def worker():
            while cursor[0] < len(chunks):
                f, pos, n = chunks[cursor[0]]
                cursor[0] += 1
                # background priority: flush/WAL I/O may jump ahead when
                # the device runs priority scheduling (SILK-style)
                read_p = self.env.process(self.fs.read(f, pos, n, priority=1))
                cpu_p = self.env.process(self.host_cpu.consume(
                    n * CPU_COMPACT_PER_BYTE, tag=f"{self.name}.compact"))
                yield self.env.all_of([read_p, cpu_p])

        if chunks:
            workers = [self.env.process(worker(),
                                        name=f"{self.name}.subcompact-{i}")
                       for i in range(min(par, len(chunks)))]
            yield self.env.all_of(workers)

        # Phase 2: build and write the output files.
        added: list[FileMetadata] = []
        for columns in outputs:
            number = self.versions.new_file_number()
            table = SSTable.from_columns(
                number, columns, block_size=opt.block_size,
                bloom_bits_per_key=opt.bloom_bits_per_key,
                entry_bytes=entry_bytes)
            meta = FileMetadata(number=number, level=job.output_level,
                                table=table)
            added.append(meta)
            job.partial_outputs.append(meta)
            out_file = self.fs.create(self._sst_name(number))
            remaining = table.file_bytes
            while remaining > 0:
                w = min(chunk, remaining)
                yield from self.fs.append(out_file, w, priority=1)
                remaining -= w

        edit = VersionEdit(
            added=added,
            removed=[(m.level, m.number) for m in job.all_inputs],
            reason=f"compact L{job.level}->L{job.output_level}",
        )
        yield from self.versions.log_and_apply(edit)
        job.partial_outputs = []
        p.touch("db.compact.install")
        for meta in job.all_inputs:
            self.fs.delete(self._sst_name(meta.number))
        self.stats.compactions += 1
        p.end(_sp, {"output_bytes": output_bytes, "outputs": len(added)})
        self.write_controller.refresh()
        self._wake_background()

    # ------------------------------------------------------------------ read
    def get(self, key: bytes) -> Generator:
        """Point lookup; returns the value (bytes/ValueRef) or None."""
        entry = yield from self.get_internal(key)
        if entry is None or entry[2] == KIND_DELETE:
            return None
        self.stats.read_hits += 1
        return entry[3]

    def get_internal(self, key: bytes) -> Generator:
        """Point lookup returning the newest internal entry (or None).

        Tombstones are returned as entries — callers that need the
        user-visible value should go through :meth:`get`.
        """
        t0 = self.env.now
        yield from self.host_cpu.consume(CPU_GET,
                                         tag=f"{self.name}.read")
        entry = self.mem.get(key)
        if entry is None:
            for m, _seg in reversed(self.imm):
                entry = m.get(key)
                if entry is not None:
                    break
        if entry is None:
            entry = yield from self._get_from_ssts(key)
        self.stats.user_reads += 1
        self.stats.record_read_latency(self.env.now - t0)
        self.env.probes.add("lsm.read_ops")
        return entry

    def _get_from_ssts(self, key: bytes) -> Generator:
        kh = None
        for meta in self.versions.current.files_for_key(key):
            if kh is None:      # one hash per lookup, none if no file covers
                kh = key_hash(key)
            probe = meta.table.probe(key, kh)
            if probe.bytes_read:
                try:
                    f = self.fs.open(self._sst_name(meta.number))
                except FsError:
                    # A compaction finished mid-lookup (between two charged
                    # reads) and deleted this input file.  Real RocksDB pins
                    # the version's files with refcounts, so the read still
                    # succeeds; the in-memory table answers the probe here,
                    # we just cannot charge I/O against the deleted file.
                    f = None
                if f is not None:
                    yield from self.fs.read(f, 0,
                                            min(probe.bytes_read, f.size))
            if probe.entry is not None:
                return probe.entry
        return None

    # ------------------------------------------------------------------ scan
    def scan(self, start_key: bytes, count: int) -> Generator:
        """Seek + ``count`` Next()s; returns the list of (key, value)."""
        entries = yield from self.scan_internal(start_key, count,
                                                include_tombstones=False)
        return [(e[0], e[3]) for e in entries]

    def scan_internal(self, start_key: bytes, count: int,
                      include_tombstones: bool = False) -> Generator:
        """Seek + Next()s returning raw internal entries (with seq/kind).

        KVACCEL's dual-interface range query merges these against Dev-LSM
        entries by sequence number, so it needs the internal view.

        I/O accounting: bytes consumed from SST sources accumulate and are
        charged one block-read at a time as the scan crosses block budgets.
        """
        opt = self.options
        t0 = self.env.now
        yield from self.host_cpu.consume(CPU_SEEK, tag=f"{self.name}.read")
        self.stats.user_seeks += 1

        sst_cost = [0]  # mutable cell shared with the SST sources

        sources: list = [self.mem.iter_from(start_key)]
        for m, _seg in reversed(self.imm):
            sources.append(m.iter_from(start_key))
        v = self.versions.current
        for meta in v.l0_newest_first:
            if meta.largest >= start_key:
                sources.append(self._level_source([meta], start_key, sst_cost))
        for level in range(1, v.num_levels):
            files = v.level_files_from(level, start_key)
            if files:
                sources.append(self._level_source(files, start_key, sst_cost))

        out = []
        pending_io = 0
        merged = merging_iterator(sources, include_tombstones=include_tombstones)
        cost_before = 0
        for entry in merged:
            if len(out) >= count:
                break
            out.append(entry)
            self.stats.user_nexts += 1
            self.host_cpu.charge(CPU_NEXT, tag=f"{self.name}.read")
            # charge accumulated SST bytes in block-sized reads
            new_cost = sst_cost[0]
            pending_io += new_cost - cost_before
            cost_before = new_cost
            while pending_io >= opt.block_size:
                yield from self._charge_scan_read(opt.block_size)
                pending_io -= opt.block_size
        if pending_io > 0:
            yield from self._charge_scan_read(pending_io)
        self.stats.record_read_latency(self.env.now - t0)
        return out

    def _level_source(self, files: list, start_key: bytes, cost_cell: list):
        """Entries of key-disjoint, ascending ``files`` from ``start_key``
        (one L0 file, or a slice of a deeper level), adding each entry's
        size to ``cost_cell[0]``: the table's one entry size when its
        entries share one, else each entry's own."""
        for meta in files:
            table = meta.table
            size = table.entry_bytes
            if size is None:
                for e in table.iter_from(start_key):
                    cost_cell[0] += entry_size(e)
                    yield e
            else:
                for e in table.iter_from(start_key):
                    cost_cell[0] += size
                    yield e

    def _charge_scan_read(self, nbytes: int) -> Generator:
        """Charge a scan's data-block read against the device.

        Scans touch many files; attributing to a specific extent doesn't
        change timing, so charge the device directly.
        """
        yield from self.fs.device.read(0, nbytes)

    # ------------------------------------------------------------------ crash
    def crash_and_recover(self) -> Generator:
        """Simulate a host crash and run the standard LSM reopen path.

        Crash: volatile state evaporates — active and immutable memtables,
        the WAL's un-flushed group-commit buffer, the host page cache — and
        in-flight flush/compaction jobs die mid-I/O (their partial output
        files become orphans).

        Recovery (what RocksDB does on open):

        1. read the MANIFEST and replay its edit journal to rebuild the
           version state;
        2. delete orphan SST files not referenced by any version;
        3. replay live WAL segments oldest-first into a fresh memtable —
           only group-committed records exist on media, so the buffered
           tail is lost (exactly the durability contract of an un-synced
           WAL).

        Returns a dict with the recovery accounting.  Durable guarantee
        checked by the tests: a write survives iff it reached an SST or a
        flushed WAL group.
        """
        t0 = self.env.now
        p = self.env.probes
        _sp = p.begin("recovery", "recovery.host", "recovery")

        # -- the crash ---------------------------------------------------
        lost_buffered = len(self.wal._buffered_records)
        for proc in list(self._inflight_compactions):
            if proc.is_alive:
                proc.interrupt("crash")
        if self._flush_proc.is_alive:
            self._flush_proc.interrupt("crash")
        self._flush_queue.items.clear()
        # An interrupted worker's pending get() would otherwise swallow the
        # next queued flush silently: drop the stale waiter along with it.
        self._flush_queue._getters.clear()
        self.mem = DictMemTable()
        self.imm.clear()
        self.background_error = None      # the reopen starts clean
        self._paused_flushes.clear()
        self.wal.drop_volatile_state()
        for name in list(self.page_cache._files):  # RAM: gone
            self.page_cache.evict(name)
        # give interrupted processes their cleanup turn at the same instant
        yield self.env.timeout(0)

        # -- reopen: manifest replay --------------------------------------
        manifest = self.versions._manifest
        if manifest is not None and manifest.size > 0:
            yield from self.fs.read_all(manifest)
        self.versions.rebuild_from_journal()
        live_files = {
            self._sst_name(f.number)
            for level in self.versions.current.levels for f in level
        }
        orphans = [
            name for name in self.fs.list_files()
            if name.startswith(f"{self.name}.sst-") and name not in live_files
        ]
        for name in orphans:
            self.fs.delete(name)
        for level in self.versions.current.levels:
            for f in level:
                f.being_compacted = False

        # -- reopen: WAL replay --------------------------------------------
        replayed = 0
        for segment_name in self.wal.live_segments():
            records = self.wal.durable_records(segment_name)
            if self.fs.exists(segment_name):
                seg = self.fs.open(segment_name)
                if seg.size > 0:
                    yield from self.fs.read_all(seg)
            if not records:
                continue
            yield from self.host_cpu.consume(
                CPU_PUT * len(records) * 0.5,
                tag=f"{self.name}.recover")
            for e in records:
                self.note_external_seq(e[1])
                # A rollback's merge copy can go stale while its WAL group
                # is written, and the newer value reach an SST meanwhile:
                # replaying the copy would shadow that value.
                held = yield from self._get_from_ssts(e[0])
                if held is not None and held[1] > e[1]:
                    continue
                self.mem.add(e)
                replayed += 1

        # restart a flush worker if the crash killed it
        if not self._flush_proc.is_alive:
            self._flush_proc = self.env.process(self._flush_worker(),
                                                name=f"{self.name}.flush")
        self.write_controller.refresh()
        self._wake_background()
        p.end(_sp, {"replayed": replayed, "orphans": len(orphans)})
        return {
            "replayed_records": replayed,
            "lost_buffered_records": lost_buffered,
            "orphans_deleted": len(orphans),
            "manifest_edits": len(self.versions.manifest_journal),
            "elapsed": self.env.now - t0,
        }

    # ------------------------------------------------------------------ lifecycle
    def flush_all(self) -> Generator:
        """Seal + flush everything (tests / shutdown barrier)."""
        if len(self.mem) > 0:
            yield from self._switch_memtable()
        while self.imm:
            if self.background_error is not None:
                raise self.background_error
            yield self.env.timeout(0.001)
        if self.background_error is not None:
            raise self.background_error

    def wait_for_quiesce(self) -> Generator:
        """Wait until no flush or compaction work remains."""
        while True:
            busy = (self.imm
                    or self._active_compactions > 0
                    or self.picker.pick(self.versions.current) is not None)
            if not busy:
                return
            if (self.background_error is not None
                    and self._active_compactions == 0):
                # Read-only mode: the remaining work is parked until
                # resume(), so waiting would never terminate.
                raise self.background_error
            yield self.env.timeout(QUIESCE_POLL)

    def close(self) -> None:
        self._closed = True
        self._flush_queue.put(_FLUSH_CLOSE)
        self._wake_background()

    # ------------------------------------------------------------------ stats
    def state_digest(self) -> dict:
        """JSON-clean LSM state for journal digest checkpoints: memtable
        fill, tree shape, and write-path verdicts — enough that any
        divergent write, flush, compaction or stall transition flips the
        hash at the next checkpoint."""
        snap = self.property_snapshot()
        snap["stall_time"] = self.write_controller.total_stall_time
        snap["delayed_time"] = self.write_controller.total_delayed_time
        snap["wal_appended"] = self.wal.appended_bytes
        snap["wal_durable"] = self.wal.durable_bytes
        return snap

    def property_snapshot(self) -> dict:
        v = self.versions.current
        return {
            "seq": self._seq,
            "memtable_bytes": self.mem.approximate_bytes,
            "immutable_memtables": len(self.imm),
            "l0_files": v.l0_count,
            "levels": [len(v.level_files(l)) for l in range(v.num_levels)],
            "level_bytes": [v.level_bytes(l) for l in range(v.num_levels)],
            "pending_compaction_bytes": v.pending_compaction_bytes(self.options),
            "write_state": self.write_controller.state,
            "stall_events": self.write_controller.stall_events,
            "slowdown_events": self.write_controller.slowdown_events,
            "flushes": self.stats.flushes,
            "compactions": self.stats.compactions,
        }
