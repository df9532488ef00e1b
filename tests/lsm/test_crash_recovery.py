"""Tests for host-LSM crash recovery (WAL replay + MANIFEST reconstruction)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db, small_options  # noqa: E402

from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402


def fill(env, db, n, start=0, vlen=64, prefix=b"v"):
    def gen():
        for i in range(start, start + n):
            yield from db.put(encode_key(i), prefix + b"-%d" % i + b"x" * vlen)
    run(env, gen())


def test_recovery_restores_flushed_and_durable_wal_data():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 1500)
    run(env, db.wait_for_quiesce())
    run(env, db.wal.sync())  # make the tail durable: clean-ish shutdown
    info = run(env, db.crash_and_recover())
    assert info["manifest_edits"] > 0
    run(env, db.wait_for_quiesce())
    # everything was flushed or WAL-group-committed before the crash
    for k in (0, 700, 1499):
        assert run(env, db.get(encode_key(k))) is not None, k


def test_unsynced_tail_is_lost_durable_groups_survive():
    env = Environment()
    # Huge group-commit budget: nothing reaches the device until sync.
    db, _, _ = small_db(env, small_options(
        write_buffer_size=1 << 20,          # no flush either
        wal_group_commit_bytes=1 << 30))
    fill(env, db, 100)
    assert db.wal.durable_bytes == 0
    info = run(env, db.crash_and_recover())
    assert info["lost_buffered_records"] == 100
    assert info["replayed_records"] == 0
    for k in (0, 50, 99):
        assert run(env, db.get(encode_key(k))) is None, k


def test_wal_replay_restores_unflushed_memtable():
    env = Environment()
    # Tiny WAL groups (everything durable), huge memtable (nothing flushed).
    db, _, _ = small_db(env, small_options(
        write_buffer_size=1 << 24,
        wal_group_commit_bytes=128))
    fill(env, db, 200)
    assert db.stats.flushes == 0
    info = run(env, db.crash_and_recover())
    assert info["replayed_records"] >= 199  # at most the last record buffered
    for k in (0, 100, 198):
        assert run(env, db.get(encode_key(k))) is not None, k


def test_recovery_preserves_newest_versions():
    env = Environment()
    db, _, _ = small_db(env, small_options(wal_group_commit_bytes=128))
    fill(env, db, 400)
    fill(env, db, 400, prefix=b"w")  # overwrite all
    run(env, db.wal.sync())
    run(env, db.crash_and_recover())
    run(env, db.wait_for_quiesce())
    for k in (0, 200, 399):
        got = run(env, db.get(encode_key(k)))
        assert got is not None and got.startswith(b"w-"), k


def test_crash_mid_compaction_discards_partial_outputs():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 1500)  # enough to keep compactions busy

    def crash_mid_flight():
        # wait until a compaction is actually in flight
        for _ in range(20_000):
            if db._active_compactions > 0:
                break
            yield env.timeout(1e-4)
        yield from db.wal.sync()
        info = yield from db.crash_and_recover()
        return info

    info = run(env, crash_mid_flight())
    run(env, db.wait_for_quiesce())
    # version state consistent: every referenced file exists, no orphans
    live = {db._sst_name(f.number)
            for level in db.versions.current.levels for f in level}
    on_disk = {n for n in db.fs.list_files() if ".sst-" in n}
    assert live == on_disk
    # no file left pinned
    assert all(not f.being_compacted
               for level in db.versions.current.levels for f in level)
    for k in (0, 700, 1499):
        assert run(env, db.get(encode_key(k))) is not None, k


def test_background_work_resumes_after_recovery():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 800)
    run(env, db.crash_and_recover())
    flushes_before = db.stats.flushes
    fill(env, db, 1200, start=800)
    run(env, db.wait_for_quiesce())
    assert db.stats.flushes > flushes_before
    assert run(env, db.get(encode_key(1500))) is not None


def test_repeated_crashes():
    env = Environment()
    db, _, _ = small_db(env, small_options(wal_group_commit_bytes=128))
    for round_ in range(3):
        fill(env, db, 200, start=round_ * 200)
        run(env, db.wal.sync())
        run(env, db.crash_and_recover())
    run(env, db.wait_for_quiesce())
    for k in (0, 250, 599):
        assert run(env, db.get(encode_key(k))) is not None, k


def test_manifest_replay_detects_consistency():
    env = Environment()
    db, _, _ = small_db(env)
    fill(env, db, 600)
    run(env, db.wait_for_quiesce())
    # journal replay reproduces the live version exactly, record by record
    replayed = db.versions.rebuild_from_journal()
    want = [[(f.number, f.level, f.table.smallest, f.table.largest,
              f.table.file_bytes) for f in lvl]
            for lvl in db.versions.current.levels]
    got = [[tuple(f) for f in lvl] for lvl in replayed.levels]
    assert got == want
