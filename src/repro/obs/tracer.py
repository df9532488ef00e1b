"""The tracer: sim-time spans, instants, and counter samples.

Every record is timestamped from the simulation clock (``env.now``,
seconds), never wall time — a trace of a deterministic run is itself
deterministic.  The tracer is purely passive: probes never yield, never
schedule events, and never touch the event heap, so an instrumented run
takes the exact same simulated trajectory as an uninstrumented one.

Hot-path contract: call sites never test for a tracer.  They call
``p.begin`` / ``p.end`` / ``p.instant`` on ``p = env.probes``, which
:meth:`Tracer.install` binds to this tracer's methods; until then each does
nothing and returns None, so a disabled span costs two no-op calls and
allocates no span object.  Span names are constants built once; an
argument that would walk a collection is the one thing a site computes only
after checking its ``begin`` returned a span.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

__all__ = ["SpanRecord", "InstantRecord", "CounterRecord", "Tracer"]


class SpanRecord:
    """One closed (or still-open) span on the sim timeline."""

    __slots__ = ("cat", "name", "actor", "t0", "t1", "args", "depth")

    def __init__(self, cat: str, name: str, actor: str, t0: float,
                 depth: int, args: Optional[dict] = None):
        self.cat = cat
        self.name = name
        self.actor = actor
        self.t0 = t0
        self.t1: Optional[float] = None   # set by Tracer.end
        self.args = args
        self.depth = depth

    @property
    def duration(self) -> float:
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    @property
    def closed(self) -> bool:
        return self.t1 is not None

    def __repr__(self) -> str:
        end = f"{self.t1:.6f}" if self.t1 is not None else "open"
        return (f"SpanRecord({self.cat}/{self.name} actor={self.actor} "
                f"[{self.t0:.6f}, {end}])")


class InstantRecord:
    """A point event (stall enter/exit, detector verdict, ...)."""

    __slots__ = ("cat", "name", "actor", "t", "args")

    def __init__(self, cat: str, name: str, actor: str, t: float,
                 args: Optional[dict] = None):
        self.cat = cat
        self.name = name
        self.actor = actor
        self.t = t
        self.args = args

    def __repr__(self) -> str:
        return f"InstantRecord({self.cat}/{self.name} @ {self.t:.6f})"


class CounterRecord:
    """One sample of a named counter (rendered as a Chrome 'C' event)."""

    __slots__ = ("name", "actor", "t", "value")

    def __init__(self, name: str, actor: str, t: float, value: float):
        self.name = name
        self.actor = actor
        self.t = t
        self.value = value

    def __repr__(self) -> str:
        return f"CounterRecord({self.name}={self.value} @ {self.t:.6f})"


class Tracer:
    """Collects spans/instants/counters from an instrumented simulation.

    ``max_events`` turns the tracer into a ring buffer keeping only the
    most recent records — the mode the fault harness uses to capture the
    trace *tail* leading up to an injected crash.
    """

    def __init__(self, max_events: Optional[int] = None):
        if max_events is not None and max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self.events: deque = deque(maxlen=max_events)
        self.dropped = 0
        self.span_count = 0
        self.instant_count = 0
        self._open: list[SpanRecord] = []
        self._depth: dict[str, int] = {}
        self._env = None

    # -- wiring ------------------------------------------------------------
    def install(self, env) -> "Tracer":
        """Attach to an Environment and claim its span/instant verbs."""
        env.tracer = self
        self._env = env
        p = env.probes
        p.begin, p.end, p.instant = self.begin, self.end, self.instant
        return self

    @property
    def now(self) -> float:
        if self._env is None:
            raise RuntimeError("tracer not installed on an Environment")
        return self._env.now

    def _actor(self, actor: Optional[str]) -> str:
        if actor is not None:
            return actor
        proc = self._env.active_process if self._env is not None else None
        return proc.name if proc is not None else "main"

    def _append(self, record) -> None:
        if (self.max_events is not None
                and len(self.events) == self.max_events):
            self.dropped += 1
        self.events.append(record)

    # -- spans -------------------------------------------------------------
    def begin(self, cat: str, name: str, actor: Optional[str] = None,
              args: Optional[dict] = None) -> SpanRecord:
        """Open a span; pair with :meth:`end`.  Spans may stay open across
        DES generator yields — the pair is matched by identity, not by a
        per-actor stack, so interleaved processes cannot corrupt it."""
        actor = self._actor(actor)
        depth = self._depth.get(actor, 0)
        self._depth[actor] = depth + 1
        span = SpanRecord(cat, name, actor, self.now, depth, args)
        self._open.append(span)
        return span

    def end(self, span: Optional[SpanRecord],
            args: Optional[dict] = None) -> Optional[SpanRecord]:
        """Close ``span`` at the current sim time and record it.  ``None``
        — what ``begin`` returned to a site before this tracer was
        installed — is ignored."""
        if span is None:
            return None
        if span.t1 is not None:
            raise RuntimeError(f"span already closed: {span!r}")
        span.t1 = self.now
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
        """Close any still-open spans at the current time (end-of-run)."""
        n = 0
        for span in list(self._open):
            self.end(span)
            n += 1
        return n

    # -- instants / counters -------------------------------------------------
    def instant(self, cat: str, name: str, actor: Optional[str] = None,
                args: Optional[dict] = None) -> InstantRecord:
        rec = InstantRecord(cat, name, self._actor(actor), self.now, args)
        self.instant_count += 1
        self._append(rec)
        return rec

    def counter(self, name: str, value: float,
                actor: str = "metrics") -> CounterRecord:
        rec = CounterRecord(name, actor, self.now, float(value))
        self._append(rec)
        return rec

    # -- queries -------------------------------------------------------------
    def spans(self, cat: Optional[str] = None) -> Iterator[SpanRecord]:
        """Closed spans, optionally filtered by category."""
        for rec in self.events:
            if isinstance(rec, SpanRecord) and (cat is None or rec.cat == cat):
                yield rec

    def instants(self, cat: Optional[str] = None) -> Iterator[InstantRecord]:
        for rec in self.events:
            if isinstance(rec, InstantRecord) and (cat is None
                                                   or rec.cat == cat):
                yield rec

    def tail(self, n: Optional[int] = None) -> list:
        """The most recent records as plain dicts, oldest first — the
        crash-tail view the fault harness attaches to its reports.

        Open spans (in-flight ops) are included with ``t1: None`` without
        being mutated — their owning processes may still be running and
        will close them normally later."""
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

    def __repr__(self) -> str:
        return (f"Tracer(events={len(self.events)}, spans={self.span_count}, "
                f"instants={self.instant_count}, open={len(self._open)}, "
                f"dropped={self.dropped})")
