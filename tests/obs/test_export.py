"""Chrome-trace export: JSON round-trip, schema validation,
attribution and top-span analysis."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.obs import (  # noqa: E402
    Tracer,
    attribution_report,
    load_chrome_trace,
    spans_from_chrome,
    stall_attribution,
    to_chrome_trace,
    top_spans,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim import Environment  # noqa: E402


def sample_tracer() -> Tracer:
    """A tracer with spans, instants, and counters across two actors."""
    env = Environment()
    tr = Tracer().install(env)

    def flusher():
        sp = tr.begin("flush", "flush", args={"bytes": 4096})
        yield env.timeout(0.25)
        nsp = tr.begin("nand", "nand.program", args={"bytes": 4096})
        yield env.timeout(0.5)
        tr.end(nsp)
        tr.end(sp)

    def controller():
        yield env.timeout(0.1)
        tr.instant("stall", "stall.enter", actor="write_controller",
                   args={"reason": "l0", "l0": 7, "imm": 1,
                         "pending_bytes": 12345})
        ssp = tr.begin("stall", "stall.l0", actor="write_controller",
                       args={"reason": "l0", "l0": 7, "imm": 1,
                             "pending_bytes": 12345})
        ksp = tr.begin("kv", "kv.put", actor="kv", args={"bytes": 1000})
        yield env.timeout(0.4)
        tr.end(ksp)
        tr.end(ssp)
        tr.instant("stall", "stall.exit", actor="write_controller",
                   args={"reason": "l0"})
        tr.counter("writes", 42)

    env.process(flusher(), name="flusher")
    env.process(controller(), name="ctl")
    env.run()
    return tr


def test_chrome_roundtrip_through_json_loads():
    tr = sample_tracer()
    doc = json.loads(json.dumps(to_chrome_trace(tr, label="test")))
    assert validate_chrome_trace(doc) == []
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    assert len(xs) == tr.span_count
    # ts/dur non-negative and monotonic over non-metadata events
    last = None
    for e in events:
        if e["ph"] == "M":
            continue
        assert e["ts"] >= 0
        if e["ph"] == "X":
            assert e["dur"] >= 0
        if last is not None:
            assert e["ts"] >= last
        last = e["ts"]
    # every actor got a named pseudo-thread
    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"flusher", "write_controller", "kv"} <= names


def test_sim_seconds_scaled_to_microseconds():
    tr = sample_tracer()
    doc = to_chrome_trace(tr)
    nand = next(e for e in doc["traceEvents"]
                if e.get("name") == "nand.program")
    assert nand["ts"] == pytest.approx(0.25 * 1e6)
    assert nand["dur"] == pytest.approx(0.5 * 1e6)


def test_write_and_reload_chrome_trace(tmp_path):
    tr = sample_tracer()
    path = tmp_path / "trace.json"
    write_chrome_trace(tr, str(path), label="unit")
    doc = load_chrome_trace(str(path))
    assert validate_chrome_trace(doc) == []
    assert doc["otherData"]["label"] == "unit"
    spans = spans_from_chrome(doc)
    by_name = {s["name"]: s for s in spans}
    assert by_name["flush"]["actor"] == "flusher"
    assert by_name["nand.program"]["t0"] == pytest.approx(0.25)
    assert by_name["nand.program"]["t1"] == pytest.approx(0.75)
    assert by_name["kv.put"]["args"]["bytes"] == 1000


def test_write_chrome_trace_creates_its_missing_directory(tmp_path):
    path = tmp_path / "nodir" / "trace.json"
    write_chrome_trace(sample_tracer(), str(path))
    assert validate_chrome_trace(load_chrome_trace(str(path))) == []


def test_validator_catches_corruption():
    tr = sample_tracer()
    base = to_chrome_trace(tr)

    def corrupt(mutate):
        doc = json.loads(json.dumps(base))
        mutate(doc["traceEvents"])
        return validate_chrome_trace(doc)

    def first_x(events):
        return next(e for e in events if e["ph"] == "X")

    assert corrupt(lambda evs: first_x(evs).update(ts=-1.0))
    assert corrupt(lambda evs: first_x(evs).update(dur=-5))
    assert corrupt(lambda evs: first_x(evs).update(ph="Z"))
    assert corrupt(lambda evs: first_x(evs).update(name=""))
    assert corrupt(lambda evs: first_x(evs).update(tid="not-an-int"))
    assert validate_chrome_trace({"traceEvents": "nope"})
    assert validate_chrome_trace([]) == ["document must be a dict, got list"]
    assert validate_chrome_trace(base) == []   # the original stays valid


def test_stall_attribution_from_tracer_and_chrome():
    tr = sample_tracer()
    for source in (tr, spans_from_chrome(to_chrome_trace(tr))):
        atts = stall_attribution(source)
        assert len(atts) == 1
        att = atts[0]
        assert att.reason == "l0"
        assert att.l0_files == 7
        assert att.immutable_memtables == 1
        assert att.pending_compaction_bytes == 12345
        assert att.duration == pytest.approx(0.4)
        # the flush [0, 0.75] overlaps the stall [0.1, 0.5] for 0.4 s
        assert att.concurrent_flush_time == pytest.approx(0.4)
        # kv.put rode the stall window: its bytes count as redirect volume
        assert att.redirect_bytes == 1000
        assert att.redirect_ops == 1
        report = attribution_report(source)
        assert "l0" in report and "1 stall(s)" in report


def test_attribution_report_empty():
    assert "no stall spans" in attribution_report([])


def test_top_spans():
    tr = sample_tracer()
    top = top_spans(tr, n=5)
    assert set(top) == {"flush", "nand", "stall", "kv"}
    (dur, name, t0) = top["nand"][0]
    assert name == "nand.program"
    assert dur == pytest.approx(0.5)
    # descending by duration within each category
    for items in top.values():
        assert all(a[0] >= b[0] for a, b in zip(items, items[1:]))
