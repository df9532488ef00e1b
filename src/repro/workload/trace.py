"""Trace-driven workloads: record operation streams, replay them later.

db_bench's synthetic generators cover the paper's evaluation, but real
adopters tune against production traces.  A :class:`Trace` is an ordered
list of (op, key, value_size) records with an optional think-time between
ops; it can be captured from any driver via :class:`TraceRecorder`, saved
to a compact text format, and replayed against any DB variant with
:class:`TraceReplayDriver` — deterministic, so A/B comparisons between
RocksDB-sim / ADOC / KVACCEL see byte-identical request streams.

Format (one record per line)::

    put <key-hex> <value-size> [think-us]
    get <key-hex> [think-us]
    del <key-hex> [think-us]
    scan <key-hex> <count> [think-us]
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional

from ..sim import Environment, Process
from .db_bench import BATCH_SIZE
from .keygen import value_for

__all__ = ["TraceOp", "Trace", "TraceRecorder", "TraceReplayDriver"]

_OPS = ("put", "get", "del", "scan")


@dataclass(frozen=True)
class TraceOp:
    op: str
    key: bytes
    value_size: int = 0      # put only
    count: int = 0           # scan only
    think_us: float = 0.0    # delay before issuing the op

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown trace op {self.op!r}")
        if self.op == "put" and self.value_size < 0:
            raise ValueError("value_size must be >= 0")
        if self.op == "scan" and self.count < 1:
            raise ValueError("scan needs count >= 1")
        if self.think_us < 0:
            raise ValueError("think_us must be >= 0")


@dataclass
class Trace:
    """An ordered, replayable operation stream."""

    ops: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    # -- (de)serialization --------------------------------------------------
    def dumps(self) -> str:
        out = io.StringIO()
        for o in self.ops:
            parts = [o.op, o.key.hex()]
            if o.op == "put":
                parts.append(str(o.value_size))
            elif o.op == "scan":
                parts.append(str(o.count))
            if o.think_us:
                parts.append(f"{o.think_us:g}")
            out.write(" ".join(parts) + "\n")
        return out.getvalue()

    @classmethod
    def loads(cls, text: str) -> "Trace":
        ops = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            op = parts[0]
            try:
                key = bytes.fromhex(parts[1])
                if op == "put":
                    size = int(parts[2])
                    think = float(parts[3]) if len(parts) > 3 else 0.0
                    ops.append(TraceOp("put", key, value_size=size,
                                       think_us=think))
                elif op == "scan":
                    count = int(parts[2])
                    think = float(parts[3]) if len(parts) > 3 else 0.0
                    ops.append(TraceOp("scan", key, count=count,
                                       think_us=think))
                elif op in ("get", "del"):
                    think = float(parts[2]) if len(parts) > 2 else 0.0
                    ops.append(TraceOp(op, key, think_us=think))
                else:
                    raise ValueError(f"unknown op {op!r}")
            except (IndexError, ValueError) as exc:
                raise ValueError(f"bad trace line {lineno}: {line!r}") from exc
        return cls(ops)

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.dumps())

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path) as f:
            return cls.loads(f.read())

    # -- stats ---------------------------------------------------------------
    def op_counts(self) -> dict:
        counts: dict[str, int] = {}
        for o in self.ops:
            counts[o.op] = counts.get(o.op, 0) + 1
        return counts


class TraceRecorder:
    """Wrap a DB facade and record every operation passing through.

    The wrapper exposes the same generator API (put/get/delete/scan/
    put_batch) and forwards to the inner DB, appending to ``trace``.
    """

    def __init__(self, db):
        self.db = db
        self.env = db.env
        self.trace = Trace()
        self._last_t: Optional[float] = None

    def _think(self) -> float:
        now = self.env.now
        think = 0.0 if self._last_t is None else (now - self._last_t) * 1e6
        self._last_t = now
        return think

    def put(self, key: bytes, value):
        from ..types import value_size as vsize
        self.trace.ops.append(TraceOp("put", key, value_size=vsize(value),
                                      think_us=self._think()))
        yield from self.db.put(key, value)

    def put_batch(self, pairs: list):
        from ..types import value_size as vsize
        think = self._think()
        for key, value in pairs:
            self.trace.ops.append(TraceOp("put", key,
                                          value_size=vsize(value),
                                          think_us=think))
            think = 0.0
        yield from self.db.put_batch(pairs)

    def get(self, key: bytes):
        self.trace.ops.append(TraceOp("get", key, think_us=self._think()))
        value = yield from self.db.get(key)
        return value

    def delete(self, key: bytes):
        self.trace.ops.append(TraceOp("del", key, think_us=self._think()))
        yield from self.db.delete(key)

    def scan(self, start_key: bytes, count: int):
        self.trace.ops.append(TraceOp("scan", start_key, count=count,
                                      think_us=self._think()))
        out = yield from self.db.scan(start_key, count)
        return out


class TraceReplayDriver:
    """Replay a trace against a DB, counting ops like the other drivers.

    Operations replay back-to-back (the recorded think times are not
    waited out) — apples to apples for system comparisons — and puts go
    in batches of the drivers' ``BATCH_SIZE``.
    """

    def __init__(self, env: Environment, db, trace: Trace):
        self.env = env
        self.db = db
        self.trace = trace
        self.write_ops = 0
        self.read_ops = 0
        self.write_bytes = 0
        self.process: Optional[Process] = None

    def start(self) -> Process:
        self.process = self.env.process(self._run(), name="trace-replay")
        return self.process

    def _run(self):
        batch: list = []
        for op in self.trace:
            if op.op == "put":
                batch.append((op.key, value_for(op.key, op.value_size)))
                if len(batch) >= BATCH_SIZE:
                    yield from self._flush_batch(batch)
                    batch = []
                continue
            if batch:
                yield from self._flush_batch(batch)
                batch = []
            if op.op == "get":
                yield from self.db.get(op.key)
                self.read_ops += 1
            elif op.op == "del":
                yield from self.db.delete(op.key)
                self.write_ops += 1
            elif op.op == "scan":
                out = yield from self.db.scan(op.key, op.count)
                self.read_ops += len(out) + 1
        if batch:
            yield from self._flush_batch(batch)
        return self.write_ops + self.read_ops

    def _flush_batch(self, batch: list):
        from ..types import value_size as vsize
        yield from self.db.put_batch(batch)
        self.write_ops += len(batch)
        self.write_bytes += sum(len(k) + vsize(v) + 8 for k, v in batch)
