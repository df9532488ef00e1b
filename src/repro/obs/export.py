"""Trace exporter: Chrome ``trace_event`` JSON.

Chrome format notes (the subset we emit, loadable in Perfetto and
``chrome://tracing``):

* spans become complete events (``ph: "X"``) with ``ts``/``dur`` in
  microseconds — **simulated** seconds scaled by 1e6, not wall time;
* instants become ``ph: "i"`` (thread-scoped), counters ``ph: "C"``;
* each actor (writer process, flusher, compactor, detector, Dev-LSM, NAND
  caller, ...) gets its own pseudo-thread via ``thread_name`` metadata.

``validate_chrome_trace`` is the schema check CI runs against every trace
the smoke bench produces.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .tracer import CounterRecord, InstantRecord, SpanRecord, Tracer

__all__ = [
    "SIM_SECONDS_TO_US",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "spans_from_chrome",
    "validate_chrome_trace",
    "assert_valid_chrome_trace",
]

# Chrome traces use microsecond timestamps; ours are simulated seconds.
SIM_SECONDS_TO_US = 1e6

_PID = 1


def _json_safe(args: Optional[dict]) -> dict:
    if not args:
        return {}
    out = {}
    for k, v in args.items():
        if isinstance(v, bytes):
            v = v.decode("utf-8", "replace")
        elif not isinstance(v, (str, int, float, bool, type(None))):
            v = repr(v)
        out[str(k)] = v
    return out


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """Flatten a tracer into a sorted Chrome ``traceEvents`` list."""
    tids: dict[str, int] = {}

    def tid_of(actor: str) -> int:
        tid = tids.get(actor)
        if tid is None:
            tid = len(tids) + 1
            tids[actor] = tid
        return tid

    events: list[dict] = []
    for rec in tracer.events:
        if isinstance(rec, SpanRecord):
            if not rec.closed:
                continue
            events.append({
                "name": rec.name,
                "cat": rec.cat,
                "ph": "X",
                "ts": rec.t0 * SIM_SECONDS_TO_US,
                "dur": (rec.t1 - rec.t0) * SIM_SECONDS_TO_US,
                "pid": _PID,
                "tid": tid_of(rec.actor),
                "args": _json_safe(rec.args),
            })
        elif isinstance(rec, InstantRecord):
            events.append({
                "name": rec.name,
                "cat": rec.cat,
                "ph": "i",
                "s": "t",
                "ts": rec.t * SIM_SECONDS_TO_US,
                "pid": _PID,
                "tid": tid_of(rec.actor),
                "args": _json_safe(rec.args),
            })
        elif isinstance(rec, CounterRecord):
            events.append({
                "name": rec.name,
                "cat": "counter",
                "ph": "C",
                "ts": rec.t * SIM_SECONDS_TO_US,
                "pid": _PID,
                "tid": tid_of(rec.actor),
                "args": {"value": rec.value},
            })
    events.sort(key=lambda e: (e["ts"], e["tid"]))
    meta = [{
        "name": "thread_name",
        "ph": "M",
        "pid": _PID,
        "tid": tid,
        "args": {"name": actor},
    } for actor, tid in sorted(tids.items(), key=lambda kv: kv[1])]
    meta.append({
        "name": "process_name",
        "ph": "M",
        "pid": _PID,
        "tid": 0,
        "args": {"name": "repro-sim"},
    })
    return meta + events


def to_chrome_trace(tracer: Tracer, label: str = "repro") -> dict:
    """The full Chrome trace document."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "clock": "simulated seconds scaled to us (not wall time)",
            "dropped_events": tracer.dropped,
        },
    }


def write_chrome_trace(tracer: Tracer, path: str,
                       label: str = "repro") -> dict:
    """Export, self-validate, and write the trace; returns the document."""
    doc = to_chrome_trace(tracer, label=label)
    assert_valid_chrome_trace(doc)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return doc


def load_chrome_trace(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def spans_from_chrome(doc: dict) -> list[dict]:
    """Span-like dicts (cat/name/actor/t0/t1/args) from a Chrome doc.

    The inverse of :func:`chrome_trace_events` for ``X`` events, and the
    one input the analyses of :mod:`repro.obs.attribution` read.
    """
    tid_names = {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            tid_names[ev.get("tid")] = ev.get("args", {}).get("name", "?")
    spans = []
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        t0 = ev["ts"] / SIM_SECONDS_TO_US
        spans.append({
            "cat": ev.get("cat", ""),
            "name": ev.get("name", ""),
            "actor": tid_names.get(ev.get("tid"), str(ev.get("tid"))),
            "t0": t0,
            "t1": t0 + ev.get("dur", 0.0) / SIM_SECONDS_TO_US,
            "args": ev.get("args", {}),
        })
    return spans


# -- schema check ----------------------------------------------------------
_PHASES = {"X", "i", "C", "M"}


def validate_chrome_trace(doc) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be a dict, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    last_ts = None
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _PHASES:
            errors.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                errors.append(f"{where}: {key} must be an int")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: ts must be a non-negative number")
            continue
        if last_ts is not None and ts < last_ts:
            errors.append(f"{where}: ts not monotonic ({ts} < {last_ts})")
        last_ts = ts
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: dur must be a non-negative number")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                errors.append(f"{where}: counter needs args")
    return errors


def assert_valid_chrome_trace(doc) -> None:
    errors = validate_chrome_trace(doc)
    if errors:
        preview = "; ".join(errors[:5])
        raise ValueError(
            f"invalid Chrome trace ({len(errors)} problem(s)): {preview}")
