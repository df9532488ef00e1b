"""Write-ahead log with group commit.

Each memtable generation owns one WAL segment file.  Appends accumulate in
a host-RAM buffer and hit the device once per ``group_commit_bytes``
(RocksDB's group-commit batching) — so the put path pays device I/O in
bursts rather than per record, exactly the pattern Intel PCM sees on the
real system.

Durability model: a record is durable once its group flush completed.  On
simulated crash-recovery the un-flushed tail is lost, which the recovery
tests assert.  Each segment keeps a *record journal* of the entries whose
groups reached the device; :meth:`durable_records` is what WAL replay
reads back after a crash.
"""

from __future__ import annotations

from typing import Generator, Optional

from .fs import FileSystem, SimFile

__all__ = ["Wal"]


class Wal:
    """One logical WAL split into per-memtable segments."""

    def __init__(self, fs: FileSystem, group_commit_bytes: int = 256 * 1024,
                 name_prefix: str = "wal"):
        if group_commit_bytes <= 0:
            raise ValueError("group_commit_bytes must be positive")
        self.fs = fs
        self.group_commit_bytes = group_commit_bytes
        self.name_prefix = name_prefix
        self._segment_seq = 0
        self._segment: Optional[SimFile] = None
        self._buffer = 0          # bytes accumulated since last flush
        self._buffered_records: list = []
        # segment name -> list of durable entries (the on-media journal)
        self._journals: dict[str, list] = {}
        self.durable_bytes = 0
        self.appended_bytes = 0
        self.flush_count = 0

    @property
    def current_segment(self) -> Optional[SimFile]:
        return self._segment

    @property
    def buffered_bytes(self) -> int:
        return self._buffer

    def new_segment(self) -> SimFile:
        """Open a fresh segment (called at memtable switch).

        Any buffered tail belongs to the *old* segment and must have been
        flushed by the caller (`sync`) before switching.
        """
        self.fs.device.env.probes.touch("wal.segment.switch")
        self._segment_seq += 1
        name = f"{self.name_prefix}.{self._segment_seq:06d}"
        self._segment = self.fs.create(name)
        self._journals[name] = []
        self._buffer = 0
        self._buffered_records = []
        return self._segment

    def append(self, nbytes: int, records: Optional[list] = None) -> Generator:
        """Log a record of ``nbytes``; flushes when the group fills.

        ``records`` (internal entries) join the segment's durable journal
        once their group reaches the device — the material WAL replay
        reads back after a crash.
        """
        if self._segment is None:
            self.new_segment()
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        p = self.fs.device.env.probes
        _sp = p.begin("wal", "wal.append", None, {"bytes": nbytes})
        p.enter("wal")
        try:
            # Pre-persistence: nothing of this record is buffered yet.
            yield from p.at("wal.append")
            self._buffer += nbytes
            self.appended_bytes += nbytes
            if records:
                self._buffered_records.extend(records)
            if self._buffer >= self.group_commit_bytes:
                yield from self._flush()
        finally:
            p.leave()
        p.end(_sp)

    def sync(self) -> Generator:
        """Force the buffered tail to the device."""
        if self._buffer > 0:
            yield from self._flush()

    def _flush(self) -> Generator:
        nbytes, self._buffer = self._buffer, 0
        records, self._buffered_records = self._buffered_records, []
        self.flush_count += 1
        self.durable_bytes += nbytes
        p = self.fs.device.env.probes
        _sp = p.begin("wal", "wal.group_commit", None,
                      {"bytes": nbytes, "records": len(records)})
        # Between buffer hand-off and media write: a crash here tears
        # the whole commit group (none of its records become durable).
        yield from p.at("wal.flush.start")
        yield from self.fs.append(self._segment, nbytes)
        self._journals[self._segment.name].extend(records)
        yield from p.at("wal.flush.complete")
        p.end(_sp)

    def retire_segment(self, segment: SimFile) -> None:
        """Delete an old segment once its memtable reached an SST."""
        if self.fs.exists(segment.name):
            self.fs.delete(segment.name)
        self._journals.pop(segment.name, None)

    # -- crash recovery -----------------------------------------------------
    def live_segments(self) -> list:
        """Names of segments not yet retired, oldest first."""
        return sorted(self._journals)

    def durable_records(self, segment_name: str) -> list:
        """Entries whose group commit reached the device before a crash.

        Buffered-but-unflushed records are *not* here — they are exactly
        the writes a real crash loses when the WAL is not fsync'd per op.
        """
        return list(self._journals.get(segment_name, []))

    def drop_volatile_state(self) -> None:
        """Simulate a crash: the RAM-side buffer evaporates."""
        self._buffer = 0
        self._buffered_records = []
