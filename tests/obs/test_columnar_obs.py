"""The columnar journal and tracer answer as the deque stores did.

``Journal`` and ``Tracer`` keep their records as columns with interned
names.  The references in ``tests/obs_reference.py`` keep a deque of
record tuples and a deque of record objects; both are driven with the
same seeded verb sequences — events, sites and digests; nested spans with
and without begin/end args, spans left open; instants and counters; the
``ring``/``window``/``max_events`` bounds below, at and across their
limits — and every read must agree: the records, ``tail``, ``dropped``,
``len``, the event-class histogram, the JSONL journal's bytes and the
Chrome trace JSON.  A tracemalloc guard holds the bytes a record costs.
"""

import gc
import json
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    CounterRecord,
    InstantRecord,
    Journal,
    SpanRecord,
    Tracer,
    attribution_report,
    to_chrome_trace,
)
from repro.obs.journal import _serialize

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from obs_reference import (  # noqa: E402
    FakeEnv,
    ReferenceJournal,
    ReferenceTracer,
)

# Time steps include 0 (records at one instant) and land on the window
# bounds below exactly, so the closed interval's edges are exercised.
steps = st.sampled_from([0.0, 0.25, 0.5, 1.0])
procs = st.sampled_from(["", "writer", "flush", "compact-1", "main"])


# -- journal -----------------------------------------------------------------

journal_ops = st.lists(st.one_of(
    st.tuples(st.just("event"), steps, procs,
              st.sampled_from(["Timeout", "Process", "Event"])),
    st.tuples(st.just("site"), steps, procs,
              st.sampled_from(["wal.append", "ctl.put.normal", "nand.io"])),
    st.tuples(st.just("digest"), steps),
), max_size=60)
rings = st.one_of(st.none(), st.integers(1, 12))
windows = st.one_of(st.none(), st.tuples(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.sampled_from([0.0, 1.0, 2.5, 4.0, 100.0])).map(sorted).map(tuple))


def drive_journals(ops, ring=None, window=None, each=None):
    """A ``Journal`` and a ``ReferenceJournal`` given the same ``ops``;
    ``each(journal, reference)`` runs after every op.  Their two digest
    layers report a state that changes with every op."""
    state = {"n": 0}
    pair = (Journal(ring=ring, window=window),
            ReferenceJournal(ring=ring, window=window))
    for j in pair:
        j.add_digest_source("lsm", lambda: dict(state))
        j.add_digest_source("ftl", lambda: {"n": state["n"] * 7})
    t = 0.0
    for op in ops:
        t += op[1]
        state["n"] += 1
        for j in pair:
            if op[0] == "event":
                j.record_event(t, op[2], op[3])
            elif op[0] == "site":
                j.site(t, op[2], op[3])
            else:
                j.checkpoint_now(t)
        if each is not None:
            each(*pair)
    return pair


def assert_same_journal(j, ref):
    rows = list(ref.records)
    assert list(j.records) == rows
    assert len(j) == len(ref) == len(j.records) == len(rows)
    assert (j.dropped, j.event_count, j.site_count, j.checkpoint_count) == (
        ref.dropped, ref.event_count, ref.site_count, ref.checkpoint_count)
    for i in range(-len(rows), len(rows)):
        assert j.records[i] == rows[i]
    assert j.records[1:-1] == rows[1:-1]
    assert j.records[::2] == rows[::2]
    with pytest.raises(IndexError):
        j.records[len(rows)]
    for n in (None, 0, 1, 3, len(rows), len(rows) + 2):
        assert j.tail(n) == ref.tail(n)
    hist = j.event_class_histogram()
    assert hist == ref.event_class_histogram()
    assert list(hist) == list(ref.event_class_histogram())
    assert _serialize(j, {"cell": "x"}) == _serialize(ref, {"cell": "x"})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ops=journal_ops, ring=rings, window=windows)
def test_journal_matches_reference(ops, ring, window):
    assert_same_journal(*drive_journals(ops, ring, window))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ops=journal_ops, ring=rings, window=windows)
def test_journal_matches_reference_after_every_record(ops, ring, window):
    """Eviction and skipping happen record by record; the stores agree at
    each step, not only at the end."""
    def same(j, ref):
        assert list(j.records) == list(ref.records)
        assert (j.dropped, len(j)) == (ref.dropped, len(ref))

    drive_journals(ops, ring, window, each=same)


def test_journal_ring_at_and_across_its_bound():
    for ring in (1, 2, 5):
        for n in (ring - 1, ring, ring + 1, 3 * ring + 2):
            ops = [("event", 0.5, "p", f"C{i % 3}") for i in range(n)]
            j, ref = drive_journals(ops, ring)
            assert_same_journal(j, ref)
            assert j.dropped == max(0, n - ring)


def test_journal_window_skips_then_ring_evicts():
    """A window skip turns the implied indices into a column; the ring
    then trims that column with the others."""
    ops = ([("event", 0.25, "a", "Timeout")] * 6
           + [("site", 0.25, "b", "wal.append")] * 10
           + [("digest", 0.0)] + [("event", 0.25, "a", "Process")] * 9)
    for ring in (None, 1, 3, 4):
        assert_same_journal(*drive_journals(ops, ring, (1.0, 4.0)))


# -- tracer ------------------------------------------------------------------

# Keys the stall attribution reads carry numbers (and ``reason`` text);
# two other keys carry what the Chrome export must repr or decode.
numbers = st.one_of(st.integers(0, 1 << 40), st.floats(0, 1e12))
arg_items = st.one_of(
    st.tuples(st.sampled_from(["bytes", "l0", "imm", "pending_bytes", "e2e"]),
              numbers),
    st.tuples(st.just("reason"), st.text(max_size=4)),
    st.tuples(st.sampled_from(["note", "n"]), st.one_of(
        st.integers(-5, 5), st.text(max_size=4), st.binary(max_size=4),
        st.none(), st.tuples(st.integers(0, 3)))))
args = st.one_of(st.none(), st.lists(arg_items, max_size=4).map(dict))
cats = st.sampled_from(["stall", "compaction", "flush", "kv", "wal"])
names = st.sampled_from(["stall.memtable", "compaction[L0->L1]", "flush",
                         "kv.put_batch", "kv.get", "wal.append"])
actors = st.one_of(st.none(), st.sampled_from(["writer", "flusher", "dev"]))

tracer_ops = st.lists(st.one_of(
    st.tuples(st.just("begin"), cats, names, actors, args),
    st.tuples(st.just("end"), st.integers(0, 7), args),
    st.tuples(st.just("instant"), cats, names, actors, args),
    st.tuples(st.just("counter"), names,
              st.one_of(st.integers(0, 1 << 20), st.floats(0, 1e9)),
              st.sampled_from(["metrics", "writer"])),
    st.tuples(st.just("advance"), steps),
    st.tuples(st.just("proc"), st.sampled_from([None, "p0", "p1"])),
), max_size=60)
max_events = st.one_of(st.none(), st.integers(1, 6),
                        st.integers(7, 30))


def drive_tracers(ops, bound=None, each=None):
    """A ``Tracer`` and a ``ReferenceTracer`` on one clock given the same
    ``ops``; ``each(tracer, reference)`` runs after every op.  ``end``
    closes the i-th handle still open, counted in begin order."""
    env = FakeEnv()
    pair = (Tracer(max_events=bound).install(env),
            ReferenceTracer(env, max_events=bound))
    handles = ([], [])
    for op in ops:
        verb = op[0]
        if verb == "advance":
            env.now += op[1]
        elif verb == "proc":
            env.active_process = (None if op[1] is None
                                  else SimpleNamespace(name=op[1]))
        for tr, open_spans in zip(pair, handles):
            if verb == "begin":
                open_spans.append(tr.begin(op[1], op[2], actor=op[3],
                                           args=op[4]))
            elif verb == "end" and open_spans:
                span = open_spans.pop(op[1] % len(open_spans))
                assert tr.end(span, args=op[2]) is span
                assert span.closed
            elif verb == "instant":
                tr.instant(op[1], op[2], actor=op[3], args=op[4])
            elif verb == "counter":
                tr.counter(op[1], op[2], actor=op[3])
        if each is not None:
            each(*pair)
    return env, pair


def fields(rec) -> tuple:
    if isinstance(rec, SpanRecord):
        return ("span", rec.cat, rec.name, rec.actor, rec.t0, rec.t1,
                rec.depth, rec.args)
    if isinstance(rec, InstantRecord):
        return ("instant", rec.cat, rec.name, rec.actor, rec.t, rec.args)
    assert isinstance(rec, CounterRecord)
    return ("counter", rec.name, rec.actor, rec.t, rec.value)


def chrome_json(tracer) -> str:
    return json.dumps(to_chrome_trace(tracer, label="t"))


def assert_same_tracer(tr, ref):
    rows = [fields(r) for r in ref.events]
    assert [fields(r) for r in tr.events] == rows
    assert len(tr) == len(ref) == len(tr.events) == len(rows)
    assert (tr.dropped, tr.span_count, tr.instant_count) == (
        ref.dropped, ref.span_count, ref.instant_count)
    for i in range(-len(rows), len(rows)):
        assert fields(tr.events[i]) == rows[i]
    assert [fields(r) for r in tr.events[1::3]] == rows[1::3]
    for cat in (None, "stall", "kv", "wal", "missing", "writer"):
        assert ([fields(s) for s in tr.spans(cat)]
                == [fields(s) for s in ref.spans(cat)])
    for n in (None, 0, 1, 4, len(rows) + 1):
        assert tr.tail(n) == ref.tail(n)
    assert chrome_json(tr) == chrome_json(ref)
    assert attribution_report(tr) == attribution_report(list(ref.spans()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ops=tracer_ops, bound=max_events)
def test_tracer_matches_reference(ops, bound):
    env, (tr, ref) = drive_tracers(ops, bound)
    # Spans still open: the tail shows them with t1 None.
    assert_same_tracer(tr, ref)
    env.now += 1.0
    assert tr.close_open_spans() == ref.close_open_spans()
    assert_same_tracer(tr, ref)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ops=tracer_ops, bound=max_events)
def test_tracer_matches_reference_after_every_record(ops, bound):
    def same(tr, ref):
        assert ([fields(r) for r in tr.events]
                == [fields(r) for r in ref.events])
        assert (tr.dropped, len(tr)) == (ref.dropped, len(ref))

    drive_tracers(ops, bound, each=same)


def test_tracer_ring_at_and_across_its_bound():
    one_of_each = [("begin", "kv", "kv.get", "dev", {"bytes": 7}),
                   ("instant", "stall", "stall.enter", None, None),
                   ("advance", 0.5),
                   ("end", 0, {"e2e": 0.5}),
                   ("counter", "ops", 3, "metrics")]
    for bound in (1, 2, 5):
        for n in (bound - 1, bound, bound + 1, 3 * bound + 2):
            ops = (one_of_each * n)[:4 * n]
            env, (tr, ref) = drive_tracers(ops, bound)
            assert_same_tracer(tr, ref)
            assert len(tr) == min(bound, len(tr) + tr.dropped)


def test_tracer_end_merges_args_in_order_and_keeps_no_handle():
    env = FakeEnv()
    tr = Tracer().install(env)
    sp = tr.begin("op", "put", actor="w", args={"a": 1, "b": 2})
    env.now = 2.0
    tr.end(sp, args={"c": 3, "a": 9})
    (rec,) = tr.events
    assert rec is not sp
    assert list(rec.args.items()) == [("a", 9), ("b", 2), ("c", 3)]
    assert sp.args == rec.args and (rec.t0, rec.t1) == (0.0, 2.0)
    empty = tr.begin("op", "put", actor="w", args={})
    tr.end(empty, args={})
    assert tr.events[-1].args == {}
    assert tr.tail()[-1]["args"] == {}


# -- what a record costs -------------------------------------------------------

def traced_bytes(fill) -> int:
    """Bytes still allocated after ``fill()`` ran, net of what it freed."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keep = fill()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del keep
    return after - before


def test_journal_record_costs_at_most_24_bytes():
    """Kind, time, process id and tag id: 17 bytes a record in columns,
    plus the arrays' growth slack (a deque of tuples held about 200 here,
    the tuple, its index and its own copy of the process name)."""
    n = 20_000

    def fill():
        j = Journal()
        for i in range(n):
            j.record_event(i * 1e-3, f"proc-{i % 7}", "Timeout")
            if i % 5 == 0:
                j.site(i * 1e-3, f"proc-{i % 7}", "wal.append")
        return j

    records = n + n // 5
    assert traced_bytes(fill) / records <= 24


def test_tracer_span_costs_at_most_96_bytes():
    """A fixed args mix — no args, one int arg, and four begin args
    merged with two end args — costs at most 96 bytes a span beside the
    arg values themselves: the shape id, ``t0``, ``t1`` and a tuple of
    the values (about 270 as a deque of ``SpanRecord`` objects with their
    args dicts)."""
    n = 12_000
    values = list(range(1000, 1000 + n))   # allocated outside the count

    def fill():
        env = FakeEnv()
        tr = Tracer().install(env)
        for i in range(n):
            env.now = i * 1e-3
            kind = i % 3
            if kind == 0:
                tr.end(tr.begin("wal", "wal.append", actor="writer"))
            elif kind == 1:
                tr.end(tr.begin("devlsm", "devlsm.put", actor="dev",
                                args={"bytes": values[i]}))
            else:
                sp = tr.begin("op", "put_batch", actor="writer",
                              args={"op_id": values[i], "count": 1,
                                    "nbytes": 4096, "scope": "db"})
                tr.end(sp, args={"e2e": 1.5, "seg_cpu": 0.5})
        return tr

    assert traced_bytes(fill) / n <= 96
