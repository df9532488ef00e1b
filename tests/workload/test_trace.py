"""Tests for trace record/replay."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db  # noqa: E402

from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402
from repro.workload import Trace, TraceOp, TraceRecorder, TraceReplayDriver  # noqa: E402


def sample_trace():
    return Trace([
        TraceOp("put", encode_key(1), value_size=64),
        TraceOp("put", encode_key(2), value_size=64, think_us=10.0),
        TraceOp("get", encode_key(1)),
        TraceOp("scan", encode_key(1), count=2),
        TraceOp("del", encode_key(2)),
        TraceOp("get", encode_key(2)),
    ])


class TestTraceFormat:
    def test_roundtrip(self):
        t = sample_trace()
        restored = Trace.loads(t.dumps())
        assert restored.ops == t.ops

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\nput 00000001 64\nget 00000001\n"
        t = Trace.loads(text)
        assert len(t) == 2
        assert t.ops[0].op == "put"

    def test_bad_lines_rejected(self):
        with pytest.raises(ValueError):
            Trace.loads("frobnicate 00000001")
        with pytest.raises(ValueError):
            Trace.loads("put 00000001")          # missing size
        with pytest.raises(ValueError):
            Trace.loads("put zz 64")             # bad hex

    def test_file_roundtrip(self, tmp_path):
        t = sample_trace()
        p = tmp_path / "ops.trace"
        t.save(p)
        assert Trace.load(p).ops == t.ops

    def test_op_validation(self):
        with pytest.raises(ValueError):
            TraceOp("nope", b"k")
        with pytest.raises(ValueError):
            TraceOp("scan", b"k", count=0)
        with pytest.raises(ValueError):
            TraceOp("put", b"k", value_size=-1)

    def test_op_counts(self):
        assert sample_trace().op_counts() == {
            "put": 2, "get": 2, "scan": 1, "del": 1}


class TestRecorder:
    def test_records_while_forwarding(self):
        env = Environment()
        db, _, _ = small_db(env)
        rec = TraceRecorder(db)

        def gen():
            yield from rec.put(encode_key(5), b"v" * 32)
            got = yield from rec.get(encode_key(5))
            assert got == b"v" * 32
            out = yield from rec.scan(encode_key(0), 3)
            assert out
            yield from rec.delete(encode_key(5))

        run(env, gen())
        assert rec.trace.op_counts() == {"put": 1, "get": 1, "scan": 1,
                                         "del": 1}
        assert rec.trace.ops[0].value_size == 32

    def test_records_batches(self):
        env = Environment()
        db, _, _ = small_db(env)
        rec = TraceRecorder(db)
        pairs = [(encode_key(i), b"x" * 16) for i in range(10)]
        run(env, rec.put_batch(pairs))
        assert rec.trace.op_counts() == {"put": 10}


class TestReplay:
    def test_replay_reproduces_state(self):
        env = Environment()
        db, _, _ = small_db(env)
        trace = Trace([TraceOp("put", encode_key(i), value_size=32)
                       for i in range(100)]
                      + [TraceOp("del", encode_key(7))])
        drv = TraceReplayDriver(env, db, trace)
        env.run(until=drv.start())
        assert drv.write_ops == 101
        assert run(env, db.get(encode_key(3))) is not None
        assert run(env, db.get(encode_key(7))) is None

    def test_record_then_replay_identical_results(self):
        # capture a trace on one DB, replay onto a fresh one, compare
        env1 = Environment()
        db1, _, _ = small_db(env1)
        rec = TraceRecorder(db1)

        def workload():
            import random
            rng = random.Random(3)
            for i in range(300):
                k = encode_key(rng.randrange(50))
                if rng.random() < 0.8:
                    yield from rec.put(k, b"v%d" % i)
                else:
                    yield from rec.delete(k)

        run(env1, workload())

        env2 = Environment()
        db2, _, _ = small_db(env2)
        drv = TraceReplayDriver(env2, db2, rec.trace)
        env2.run(until=drv.start())
        # same live key set on both sides
        s1 = run(env1, db1.scan(encode_key(0), 100))
        s2 = run(env2, db2.scan(encode_key(0), 100))
        assert [k for k, _ in s1] == [k for k, _ in s2]

    def test_replay_counts_scans(self):
        env = Environment()
        db, _, _ = small_db(env)
        fill = Trace([TraceOp("put", encode_key(i), value_size=8)
                      for i in range(20)])
        env.run(until=TraceReplayDriver(env, db, fill).start())
        t = Trace([TraceOp("scan", encode_key(0), count=10)])
        drv = TraceReplayDriver(env, db, t)
        env.run(until=drv.start())
        assert drv.read_ops == 11  # seek + 10 entries
