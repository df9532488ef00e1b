"""Additional DbImpl coverage: factories, tombstone scans, lifecycle."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db, small_options  # noqa: E402

from repro.lsm import LsmOptions  # noqa: E402
from repro.lsm.fs import FsError  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import KIND_DELETE, encode_key, make_entry  # noqa: E402


def fill(env, db, n, start=0, vlen=48):
    def gen():
        for i in range(start, start + n):
            yield from db.put(encode_key(i), b"v-%d" % i + b"x" * vlen)
    run(env, gen())


def test_scan_internal_exposes_tombstones():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 20)
    run(env, db.delete(encode_key(5)))
    entries = run(env, db.scan_internal(encode_key(0), 30,
                                        include_tombstones=True))
    kinds = {e[0]: e[2] for e in entries}
    assert kinds[encode_key(5)] == KIND_DELETE
    # user scan hides it
    out = run(env, db.scan(encode_key(0), 30))
    assert encode_key(5) not in [k for k, _ in out]


def test_flush_all_with_empty_memtable_is_noop():
    env = Environment()
    db, _, _ = small_db(env)
    run(env, db.flush_all())
    assert db.stats.flushes == 0


def test_flush_all_drains_active_memtable():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 50)  # below the switch threshold
    assert db.stats.flushes == 0
    run(env, db.flush_all())
    assert db.stats.flushes == 1
    assert len(db.mem) == 0
    assert run(env, db.get(encode_key(25))) is not None


def test_zero_page_cache():
    env = Environment()
    db, dev, _ = small_db(env, page_cache_bytes=0)
    fill(env, db, 1200)
    run(env, db.wait_for_quiesce())
    # With no page cache, compaction reads always touch the device.
    assert dev.bytes_read > 0
    assert db.page_cache.hits == 0


def test_get_from_flushed_sst_after_memtable_rotation():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 400)
    run(env, db.flush_all())
    run(env, db.wait_for_quiesce())
    assert len(db.mem) == 0 and not db.imm
    # every read now comes from SSTs
    for k in (0, 200, 399):
        assert run(env, db.get(encode_key(k))) is not None


def test_background_error_surfaces_on_write():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 10)
    db.background_error = RuntimeError("injected")
    with pytest.raises(RuntimeError, match="injected"):
        fill(env, db, 1, start=100)


def test_delete_with_explicit_seq():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 5)
    run(env, db.write_entries([make_entry(encode_key(2), 10_000, None)]))
    assert db.property_snapshot()["seq"] == 10_000
    assert run(env, db.get(encode_key(2))) is None


def test_stats_counters_move():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 600)
    run(env, db.get(encode_key(1)))
    run(env, db.scan(encode_key(0), 5))
    run(env, db.wait_for_quiesce())
    s = db.stats
    assert s.user_writes == 600
    assert s.user_reads >= 1
    assert s.user_seeks == 1
    assert s.user_nexts == 5
    assert s.flush_bytes_written > 0
    if s.compactions:
        assert s.compaction_bytes_read > 0


def test_wait_for_quiesce_idempotent():
    env = Environment()
    db, _, _ = small_db(env)
    run(env, db.wait_for_quiesce())
    fill(env, db, 300)
    run(env, db.wait_for_quiesce())
    run(env, db.wait_for_quiesce())
    assert db._active_compactions == 0
    assert not db.imm


def test_get_survives_compaction_deleting_a_candidate_between_charged_reads(
        monkeypatch):
    """A lookup walks the file list of the version it started on.  When a
    compaction installs and deletes a later candidate while an earlier
    charged read is in flight, the in-memory table still answers (RocksDB
    pins the version's files by refcount); only the I/O charge against the
    deleted file is skipped (``DbImpl._get_from_ssts``'s ``except
    FsError``)."""
    monkeypatch.setattr(LsmOptions, "bloom_bits_per_key", 1)
    env = Environment()
    db, _, _ = small_db(env, small_options(
        level0_file_num_compaction_trigger=3))

    def l0_file(keys):
        def gen():
            for i in keys:
                yield from db.put(encode_key(i), b"v-%d" % i)
            yield from db.flush_all()
        run(env, gen())

    # L0, newest first: [odd keys, even keys] — one file short of the
    # compaction trigger, so nothing moves yet.
    l0_file(range(0, 200, 2))
    l0_file(range(1, 200, 2))
    run(env, db.wait_for_quiesce())
    newer, older = db.versions.current.l0_newest_first
    # A key of the older file that the newer file's 1-bit/key bloom lets
    # through: its lookup pays a charged read on `newer`, finds nothing,
    # and goes on to `older`.
    k = next(i for i in range(2, 198, 2)
             if newer.table.probe(encode_key(i)).bytes_read)
    victim = db._sst_name(older.number)

    real_read, real_open = db.fs.read, db.fs.open
    lookup = None
    vanished = []

    def slow_read(f, offset, nbytes, **kw):
        yield from real_read(f, offset, nbytes, **kw)
        if env.active_process is lookup:
            # The lookup's first read stays in flight until the compaction
            # below has deleted the next candidate.
            while db.fs.exists(victim):
                assert env.now < 60.0, "compaction never took the L0 files"
                yield env.timeout(1e-3)

    def recording_open(name):
        try:
            return real_open(name)
        except FsError:
            vanished.append(name)
            raise

    def third_l0_file():
        # Reaches the trigger: L0 -> L1 merges all three files and deletes
        # its inputs.
        yield from db.put(encode_key(1000), b"v-1000")
        yield from db.flush_all()

    db.fs.read, db.fs.open = slow_read, recording_open
    lookup = env.process(db.get(encode_key(k)))
    env.process(third_l0_file())
    assert env.run(until=lookup) == b"v-%d" % k
    assert vanished == [victim]
    assert db.stats.compactions == 1
    assert older.number not in {
        m.number for m in db.versions.current.level_files(0)}
