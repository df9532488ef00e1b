"""Tests for the dual-interface range query (Section V-F)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_kvaccel  # noqa: E402

from repro.core import DualIterator  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402


def put_main(env, db, keys, prefix=b"m"):
    def gen():
        db.detector.stall_condition = False
        for k in keys:
            yield from db.put(encode_key(k), prefix + b"-%d" % k)
    run(env, gen())


def put_dev(env, db, keys, prefix=b"d"):
    def gen():
        db.detector.stall_condition = True
        for k in keys:
            yield from db.put(encode_key(k), prefix + b"-%d" % k)
        db.detector.stall_condition = False
    run(env, gen())


@pytest.fixture
def system():
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="disabled")
    yield env, db, ssd
    db.close()


def test_interleaved_keys_merge_in_order(system):
    env, db, _ = system
    put_main(env, db, [0, 2, 4, 6, 8])
    put_dev(env, db, [1, 3, 5, 7, 9])
    out = run(env, db.scan(encode_key(0), 10))
    assert [k for k, _ in out] == [encode_key(i) for i in range(10)]
    # values came from the right interface
    vals = dict(out)
    assert vals[encode_key(2)].startswith(b"m-")
    assert vals[encode_key(3)].startswith(b"d-")


def test_same_key_newest_wins_dev_newer(system):
    env, db, _ = system
    put_main(env, db, [5])
    put_dev(env, db, [5])  # later write -> higher seq
    out = dict(run(env, db.scan(encode_key(5), 1)))
    assert out[encode_key(5)].startswith(b"d-")


def test_same_key_newest_wins_main_newer(system):
    env, db, _ = system
    put_dev(env, db, [5])
    put_main(env, db, [5])  # controller removes metadata, main newest
    out = dict(run(env, db.scan(encode_key(5), 1)))
    assert out[encode_key(5)].startswith(b"m-")


def test_dev_tombstone_hides_main_key(system):
    env, db, _ = system
    put_main(env, db, [1, 2, 3])
    def gen():
        db.detector.stall_condition = True
        yield from db.delete(encode_key(2))
        db.detector.stall_condition = False
    run(env, gen())
    out = run(env, db.scan(encode_key(1), 3))
    assert [k for k, _ in out] == [encode_key(1), encode_key(3)]


def test_seek_into_middle(system):
    env, db, _ = system
    put_main(env, db, range(0, 20, 2))
    put_dev(env, db, range(1, 20, 2))
    out = run(env, db.scan(encode_key(7), 5))
    assert [k for k, _ in out] == [encode_key(k) for k in range(7, 12)]


def test_empty_dev_falls_back_to_main_only(system):
    env, db, ssd = system
    put_main(env, db, range(10))
    assert ssd.kv.is_empty
    out = run(env, db.scan(encode_key(0), 10))
    assert len(out) == 10


def test_empty_both(system):
    env, db, _ = system
    assert run(env, db.scan(encode_key(0), 5)) == []


def test_count_limits_output(system):
    env, db, _ = system
    put_main(env, db, range(100))
    out = run(env, db.scan(encode_key(0), 7))
    assert len(out) == 7


def test_scan_past_end(system):
    env, db, _ = system
    put_main(env, db, range(5))
    out = run(env, db.scan(encode_key(3), 100))
    assert [k for k, _ in out] == [encode_key(3), encode_key(4)]


def test_dev_iterator_charges_nvme_commands(system):
    env, db, ssd = system
    put_main(env, db, range(0, 50, 2))
    put_dev(env, db, range(1, 50, 2))
    before = dict(ssd.kv.command_counts)
    run(env, db.scan(encode_key(0), 50))
    after = ssd.kv.command_counts
    assert after.get("iter_open", 0) > before.get("iter_open", 0)
    assert after.get("iter_next", 0) > before.get("iter_next", 0)


def test_main_prefetch_refills_across_buffer_boundary(system):
    env, db, _ = system
    put_main(env, db, range(600))

    def gen():
        it = DualIterator(db.controller, prefetch=64)
        yield from it.seek(encode_key(0))
        got = []
        while True:
            e = yield from it.next()
            if e is None:
                break
            got.append(e[0])
        return got

    keys = run(env, gen())
    assert keys == [encode_key(k) for k in range(600)]


def test_range_query_against_model(system):
    import random
    env, db, _ = system
    rng = random.Random(5)
    model = {}

    def gen():
        for i in range(2000):
            k = rng.randrange(300)
            stall = rng.random() < 0.3
            db.detector.stall_condition = stall
            v = b"%d:%d" % (k, i)
            yield from db.put(encode_key(k), v)
            model[k] = v
        db.detector.stall_condition = False

    run(env, gen())
    expected = [(encode_key(k), model[k]) for k in sorted(model)][:100]
    out = run(env, db.scan(encode_key(0), 100))
    assert out == expected
