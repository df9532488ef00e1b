"""db_bench-style workload drivers.

Each driver is a simulation process generator that pushes operations at a
DB facade (``put_batch``/``get``/``scan``) until a deadline, feeding
:class:`~repro.sim.RateMeter` s so per-second throughput series come out
exactly like db_bench's ``-stats_interval_seconds 1`` report.

Drivers are system-agnostic: the same driver runs RocksDB-sim, ADOC, and
KVACCEL, which is what makes the cross-system figures apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim import Environment, Process, RateMeter
from ..types import entry_size, value_size
from .keygen import KeyGenerator, RandomKeys, value_for

__all__ = ["DriverConfig", "FillRandomDriver", "ReadWhileWritingDriver",
           "SeekRandomDriver", "fill_database"]


@dataclass
class DriverConfig:
    duration: float                 # how long to run (sim seconds)
    key_space: int = 1 << 24
    key_size: int = 4
    value_size: int = 4096
    batch_size: int = 32            # driver-side batching (group commit)
    seed: int = 1


class _DriverBase:
    def __init__(self, env: Environment, db, config: DriverConfig):
        self.env = env
        self.db = db
        self.config = config
        self.write_meter = RateMeter()
        self.read_meter = RateMeter()
        self.write_ops = 0
        self.read_ops = 0
        self.write_bytes = 0
        self.process: Optional[Process] = None

    def start(self) -> Process:
        raise NotImplementedError

    def _make_batch(self, keys: KeyGenerator, n: int) -> list:
        cfg = self.config
        return [(k := keys.next_key(), value_for(k, cfg.value_size))
                for _ in range(n)]


class FillRandomDriver(_DriverBase):
    """Workload A: one write thread, no write limit."""

    def start(self) -> Process:
        self.process = self.env.process(self._run(), name="fillrandom")
        return self.process

    def _run(self):
        cfg = self.config
        keys = RandomKeys(cfg.key_space, cfg.key_size, seed=cfg.seed)
        t_end = self.env.now + cfg.duration
        per_entry = cfg.key_size + cfg.value_size + 8
        p = self.env.probes
        while self.env.now < t_end:
            batch = self._make_batch(keys, cfg.batch_size)
            ctx = p.op_begin("put_batch", len(batch), len(batch) * per_entry)
            try:
                yield from self.db.put_batch(batch)
            finally:
                p.op_end(ctx)
            n = len(batch)
            self.write_ops += n
            self.write_meter.add(n)
            self.write_bytes += n * per_entry
        return self.write_ops


class ReadWhileWritingDriver(_DriverBase):
    """Workloads B/C: one unthrottled write thread plus one read thread
    paced to hold the target write:read completion ratio."""

    def __init__(self, env: Environment, db, config: DriverConfig,
                 write_ratio: float = 0.9, read_ratio: float = 0.1):
        super().__init__(env, db, config)
        if write_ratio <= 0 or read_ratio <= 0:
            raise ValueError("both ratios must be positive for readwhilewriting")
        self.write_ratio = write_ratio
        self.read_ratio = read_ratio
        self._done = False
        self.read_hits = 0

    def start(self) -> Process:
        self.env.process(self._reader(), name="rww-reader")
        self.process = self.env.process(self._writer(), name="rww-writer")
        return self.process

    def _writer(self):
        cfg = self.config
        keys = RandomKeys(cfg.key_space, cfg.key_size, seed=cfg.seed)
        t_end = self.env.now + cfg.duration
        per_entry = cfg.key_size + cfg.value_size + 8
        p = self.env.probes
        while self.env.now < t_end:
            batch = self._make_batch(keys, cfg.batch_size)
            ctx = p.op_begin("put_batch", len(batch), len(batch) * per_entry)
            try:
                yield from self.db.put_batch(batch)
            finally:
                p.op_end(ctx)
            n = len(batch)
            self.write_ops += n
            self.write_meter.add(n)
            self.write_bytes += n * per_entry
        self._done = True
        return self.write_ops

    def _reader(self):
        cfg = self.config
        keys = RandomKeys(cfg.key_space, cfg.key_size, seed=cfg.seed + 7919)
        # pace: reads/writes tracks read_ratio/write_ratio
        target = self.read_ratio / self.write_ratio
        p = self.env.probes
        while not self._done:
            if self.read_ops > (self.write_ops + 1) * target:
                yield self.env.timeout(0.001)
                continue
            ctx = p.op_begin("get")
            try:
                value = yield from self.db.get(keys.next_key())
            finally:
                p.op_end(ctx)
            if value is not None:
                self.read_hits += 1
            self.read_ops += 1
            self.read_meter.add()
        return self.read_ops


class SeekRandomDriver(_DriverBase):
    """Workload D: one range-query thread, Seek + N Next per op."""

    def __init__(self, env: Environment, db, config: DriverConfig,
                 nexts_per_seek: int = 1024,
                 max_seeks: Optional[int] = None):
        super().__init__(env, db, config)
        self.nexts_per_seek = nexts_per_seek
        self.max_seeks = max_seeks
        self.seeks = 0
        self.entries_scanned = 0

    def start(self) -> Process:
        self.process = self.env.process(self._run(), name="seekrandom")
        return self.process

    def _run(self):
        cfg = self.config
        keys = RandomKeys(cfg.key_space, cfg.key_size, seed=cfg.seed)
        t_end = self.env.now + cfg.duration
        p = self.env.probes
        while self.env.now < t_end:
            if self.max_seeks is not None and self.seeks >= self.max_seeks:
                break
            ctx = p.op_begin("scan", self.nexts_per_seek)
            try:
                out = yield from self.db.scan(keys.next_key(),
                                              self.nexts_per_seek)
            finally:
                p.op_end(ctx)
            self.seeks += 1
            got = len(out)
            self.entries_scanned += got
            # db_bench counts each Seek+Next as ops; we count entries
            self.read_ops += got + 1
            self.read_meter.add(got + 1)
        return self.seeks


def fill_database(env: Environment, db, total_bytes: int,
                  config: DriverConfig) -> Process:
    """Initial load phase (workload D preloads 20 GB, scaled by profile).

    Returns the loader process; run the env until it completes.
    """
    def loader():
        keys = RandomKeys(config.key_space, config.key_size, seed=config.seed)
        per_entry = config.key_size + config.value_size + 8
        remaining = total_bytes
        while remaining > 0:
            n = min(config.batch_size, max(1, remaining // per_entry))
            batch = [(k := keys.next_key(), value_for(k, config.value_size))
                     for _ in range(n)]
            yield from db.put_batch(batch)
            remaining -= n * per_entry
        return total_bytes - remaining

    return env.process(loader(), name="fill")
