"""Integration tests for DbImpl: write path, flush, compaction, reads, scans."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db, small_options  # noqa: E402

from repro.lsm import LsmOptions  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import ENTRY_OVERHEAD, encode_key  # noqa: E402


def fill(env, db, n, vlen=64, start=0, prefix=b"v"):
    def gen():
        for i in range(start, start + n):
            yield from db.put(encode_key(i), prefix + b"-%d" % i + b"x" * vlen)
    run(env, gen())


def test_put_get_roundtrip():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 10)
    assert run(env, db.get(encode_key(3))) == b"v-3" + b"x" * 64
    assert run(env, db.get(encode_key(99))) is None


def test_flush_triggered_by_memtable_size():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 400)  # 400 * ~75B > 16 KiB several times over
    run(env, db.wait_for_quiesce())
    assert db.stats.flushes >= 1
    assert sum(map(len, db.versions.current.levels)) >= 1
    # all data still visible after flushes
    for k in (0, 100, 399):
        assert run(env, db.get(encode_key(k))) is not None


def test_compaction_reduces_l0():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 2000)
    run(env, db.wait_for_quiesce())
    assert db.stats.compactions >= 1
    v = db.versions.current
    assert v.l0_count < db.options.level0_slowdown_writes_trigger
    # data survived compaction
    for k in (0, 777, 1500, 1999):
        got = run(env, db.get(encode_key(k)))
        assert got is not None, k


def test_overwrite_returns_latest():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 500)
    fill(env, db, 500, prefix=b"w")  # overwrite same keys
    run(env, db.wait_for_quiesce())
    for k in (0, 250, 499):
        got = run(env, db.get(encode_key(k)))
        assert got.startswith(b"w-"), k


def test_delete_hides_key_across_flush():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 300)
    run(env, db.delete(encode_key(5)))
    run(env, db.flush_all())
    run(env, db.wait_for_quiesce())
    assert run(env, db.get(encode_key(5))) is None
    assert run(env, db.get(encode_key(6))) is not None


def test_scan_returns_sorted_latest():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 1000)
    run(env, db.delete(encode_key(12)))
    fill(env, db, 1, start=15, prefix=b"w")
    out = run(env, db.scan(encode_key(10), 10))
    keys = [k for k, _ in out]
    assert keys == sorted(keys)
    assert encode_key(12) not in keys
    assert keys[0] == encode_key(10)
    d = dict(out)
    assert d[encode_key(15)].startswith(b"w-")


def test_scan_spans_memtable_and_ssts():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 600)             # mostly flushed
    fill(env, db, 5, start=600)    # still in memtable
    out = run(env, db.scan(encode_key(595), 10))
    assert [k for k, _ in out] == [encode_key(k) for k in range(595, 605)]


def test_scan_charges_device_reads():
    env = Environment()
    db, dev, _ = small_db(env, page_cache_bytes=0)
    fill(env, db, 2000)
    run(env, db.wait_for_quiesce())
    before = dev.bytes_read
    run(env, db.scan(encode_key(0), 500))
    assert dev.bytes_read > before


def test_get_uses_bloom_to_skip_files():
    env = Environment()
    db, dev, _ = small_db(env, page_cache_bytes=0)
    fill(env, db, 1000)
    run(env, db.wait_for_quiesce())
    before = dev.bytes_read
    for k in range(20_000, 20_050):
        assert run(env, db.get(encode_key(k))) is None
    # misses are nearly free thanks to bloom + key-range checks
    assert dev.bytes_read - before < 16 * 1024


def test_write_batch_counts_every_op():
    env = Environment()
    db, _, _ = small_db(env)
    pairs = [(encode_key(i), b"b" * 32) for i in range(50)]
    run(env, db.put_batch(pairs))
    assert db.stats.user_write_bytes == sum(
        len(k) + len(v) + ENTRY_OVERHEAD for k, v in pairs)
    assert run(env, db.get(encode_key(49))) == b"b" * 32


def test_wal_written_on_put():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 100)
    assert db.wal.appended_bytes > 0


def test_stall_books_record_under_pressure():
    env = Environment()
    # Tiny stop triggers + slow device => guaranteed stalls.
    opts = small_options(level0_stop_writes_trigger=3,
                         level0_slowdown_writes_trigger=2,
                         slowdown_enabled=False)
    db, _, _ = small_db(env, opts)
    fill(env, db, 4000)
    wc = db.write_controller
    assert wc.stall_events > 0
    assert wc.total_stall_time > 0
    assert wc.stall_intervals


def test_slowdown_reduces_stalls_but_throttles(monkeypatch):
    # L0-pressure regime: plenty of memtable headroom, tight L0 triggers,
    # so stalls are the kind the slowdown mechanism anticipates.
    monkeypatch.setattr(LsmOptions, "max_write_buffer_number", 8)

    def l0_opts(sl):
        return small_options(
            slowdown_enabled=sl,
            level0_file_num_compaction_trigger=2,
            level0_slowdown_writes_trigger=3,
            level0_stop_writes_trigger=5,
            delayed_write_rate=128 * 1024,
        )

    env1 = Environment()
    db1, _, _ = small_db(env1, l0_opts(False))
    fill(env1, db1, 3000)
    t_nosl = env1.now
    l0_stalls_nosl = db1.write_controller.stall_events

    env2 = Environment()
    db2, _, _ = small_db(env2, l0_opts(True))
    fill(env2, db2, 3000)
    t_sl = env2.now
    assert db2.write_controller.slowdown_events >= 1
    # slowdown trades stalls for throughput: fewer stalls, slower run
    assert db2.write_controller.stall_events <= l0_stalls_nosl
    assert t_sl >= t_nosl


def test_property_snapshot_shape():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 200)
    snap = db.property_snapshot()
    for key in ("seq", "l0_files", "levels", "pending_compaction_bytes",
                "write_state", "flushes"):
        assert key in snap
    assert snap["seq"] == 200


def test_sequence_numbers_monotonic_and_external():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 10)
    assert db.property_snapshot()["seq"] == 10
    db.note_external_seq(1000)
    fill(env, db, 1, start=50)
    assert db.property_snapshot()["seq"] == 1001


def test_write_entries_preserves_seq():
    env = Environment()
    db, _, _ = small_db(env)
    from repro.types import make_entry
    entries = [make_entry(encode_key(1), 500, b"low"),
               make_entry(encode_key(2), 700, b"high")]
    run(env, db.write_entries(entries))
    # a later regular put gets seq > 700
    fill(env, db, 1, start=3)
    assert db.property_snapshot()["seq"] == 701


def test_close_stops_background_workers():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 100)
    db.close()
    env.run(until=env.now + 1)
    with pytest.raises(RuntimeError):
        run(env, db.put(encode_key(1), b"x"))


def test_compaction_drops_tombstones_eventually():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 500)
    for k in range(0, 100):
        run(env, db.delete(encode_key(k)))
    run(env, db.flush_all())
    run(env, db.wait_for_quiesce())
    for k in (0, 50, 99):
        assert run(env, db.get(encode_key(k))) is None
    assert run(env, db.get(encode_key(200))) is not None


def test_latency_hooks_record():
    env = Environment()
    db, _, _ = small_db(env)

    class Hist:
        def __init__(self):
            self.values = []

        def record(self, us, count=1):
            self.values.extend([us] * count)

    db.stats.write_latencies = Hist()
    db.stats.read_latencies = Hist()
    fill(env, db, 20)
    run(env, db.get(encode_key(1)))
    assert len(db.stats.write_latencies.values) == 20
    assert len(db.stats.read_latencies.values) == 1
    assert all(v >= 0 for v in db.stats.write_latencies.values)
