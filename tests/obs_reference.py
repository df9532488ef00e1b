"""Reference models of the journal's and the tracer's record stores.

``ReferenceJournal`` keeps its records as a list of ``(kind, idx, t,
proc, tag)`` tuples and ``ReferenceTracer`` keeps a deque of
``SpanRecord``/``InstantRecord``/``CounterRecord`` objects, bounded by the
deque's ``maxlen``.  ``repro.obs.Journal`` and ``repro.obs.Tracer``
store the same records as columns instead; the tests drive both with the
same calls and require every read to agree, down to the bytes of the
JSONL journal and the Chrome trace.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace
from typing import Optional

from repro.obs.journal import DIGEST, EVENT, SITE, digest_state
from repro.obs.tracer import CounterRecord, InstantRecord, SpanRecord


class FakeEnv:
    """The clock and the active process a tracer reads; tests set them."""

    def __init__(self):
        self._now = 0.0
        self._active_process = None
        self.probes = SimpleNamespace()

    @property
    def now(self) -> float:
        return self._now

    @now.setter
    def now(self, t: float) -> None:
        self._now = t

    @property
    def active_process(self):
        return self._active_process

    @active_process.setter
    def active_process(self, proc) -> None:
        self._active_process = proc


class ReferenceJournal:
    """The journal's recording verbs over a list of record tuples."""

    def __init__(self, period: float = 1.0, window: Optional[tuple] = None):
        self.period = float(period)
        self.window = window
        self.records: list = []
        self.dropped = 0
        self.event_count = 0
        self.site_count = 0
        self.checkpoint_count = 0
        self._idx = 0
        self._sources: list = []
        self.layer_names: list = []

    def add_digest_source(self, name, fn) -> None:
        self._sources.append((name, fn))
        self.layer_names.append(name)

    def record_event(self, t, proc, cls) -> None:
        self.event_count += 1
        self._record(EVENT, t, proc, cls)

    def site(self, t, proc, site) -> None:
        self.site_count += 1
        self._record(SITE, t, proc, site)

    def _record(self, kind, t, proc, tag) -> None:
        idx = self._idx
        self._idx = idx + 1
        w = self.window
        if w is not None and not (w[0] <= t <= w[1]):
            return
        self.records.append((kind, idx, t, proc, tag))

    def checkpoint_now(self, t) -> None:
        self.checkpoint_count += 1
        for name, fn in self._sources:
            idx = self._idx
            self._idx = idx + 1
            self.records.append((DIGEST, idx, t, name, digest_state(fn())))

    def event_class_histogram(self) -> dict:
        out: dict = {}
        for rec in self.records:
            if rec[0] == EVENT:
                out[rec[4]] = out.get(rec[4], 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.records)


class ReferenceTracer:
    """The tracer's recording verbs over a deque of record objects."""

    def __init__(self, env, max_events: Optional[int] = None):
        self.max_events = max_events
        self.events: deque = deque(maxlen=max_events)
        self.dropped = 0
        self.span_count = 0
        self.instant_count = 0
        self._open: list = []
        self._depth: dict = {}
        self._env = env

    def _actor(self, actor):
        if actor is not None:
            return actor
        proc = self._env.active_process
        return proc.name if proc is not None else "main"

    def _append(self, record) -> None:
        if (self.max_events is not None
                and len(self.events) == self.max_events):
            self.dropped += 1
        self.events.append(record)

    def begin(self, cat, name, actor=None, args=None) -> SpanRecord:
        actor = self._actor(actor)
        depth = self._depth.get(actor, 0)
        self._depth[actor] = depth + 1
        span = SpanRecord(cat, name, actor, self._env.now, depth, args)
        self._open.append(span)
        return span

    def end(self, span, args=None):
        if span.t1 is not None:
            raise RuntimeError(f"span already closed: {span!r}")
        span.t1 = self._env.now
        if args:
            span.args = dict(span.args or {}, **args)
        self._depth[span.actor] = max(0, self._depth.get(span.actor, 1) - 1)
        try:
            self._open.remove(span)
        except ValueError:
            pass
        self.span_count += 1
        self._append(span)
        return span

    def close_open_spans(self) -> int:
        n = 0
        for span in list(self._open):
            self.end(span)
            n += 1
        return n

    def instant(self, cat, name, actor=None, args=None) -> InstantRecord:
        rec = InstantRecord(cat, name, self._actor(actor), self._env.now,
                            args)
        self.instant_count += 1
        self._append(rec)
        return rec

    def counter(self, name, value, actor="metrics") -> CounterRecord:
        rec = CounterRecord(name, actor, self._env.now, float(value))
        self._append(rec)
        return rec

    def spans(self, cat=None):
        for rec in self.events:
            if isinstance(rec, SpanRecord) and (cat is None or rec.cat == cat):
                yield rec

    def tail(self, n=None) -> list:
        out = []
        for rec in [*self.events, *self._open]:
            if isinstance(rec, SpanRecord):
                out.append({"kind": "span", "cat": rec.cat, "name": rec.name,
                            "actor": rec.actor, "t0": rec.t0, "t1": rec.t1,
                            "args": rec.args})
            elif isinstance(rec, InstantRecord):
                out.append({"kind": "instant", "cat": rec.cat,
                            "name": rec.name, "actor": rec.actor,
                            "t": rec.t, "args": rec.args})
            else:
                out.append({"kind": "counter", "name": rec.name,
                            "actor": rec.actor, "t": rec.t,
                            "value": rec.value})
        out.sort(key=lambda d: d.get("t", d.get("t0", 0.0)))
        if n is not None:
            out = out[-n:]
        return out

    def __len__(self) -> int:
        return len(self.events)
