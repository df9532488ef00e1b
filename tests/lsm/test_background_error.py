"""RocksDB-style background-error state: latch, read-only mode, resume."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db, small_options  # noqa: E402

from repro.faults.plan import AlwaysPlan  # noqa: E402
from repro.faults.registry import FAIL, FaultAction, FaultRegistry  # noqa: E402
from repro.resil import (  # noqa: E402
    DeviceError,
    PERSISTENT,
    RetryExecutor,
    RetryPolicy,
    TRANSIENT,
)
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402


def bg_err(kind=TRANSIENT):
    return DeviceError(kind, site="wal.sync", detail="scripted")


def tick(env, dt=0.01):
    def g():
        yield env.timeout(dt)
    env.run(until=env.process(g()))


# ----------------------------------------------------------- the latch
def test_latch_refuses_writes_until_resume():
    env = Environment()
    db, _, _ = small_db(env)
    run(env, db.put(encode_key(0), b"before"))
    db.set_background_error(bg_err())
    assert db.read_only
    with pytest.raises(DeviceError):
        run(env, db.put(encode_key(1), b"refused"))
    db.resume()
    assert not db.read_only
    run(env, db.put(encode_key(1), b"after"))
    assert run(env, db.get(encode_key(1))) == b"after"


def test_first_error_wins():
    env = Environment()
    db, _, _ = small_db(env)
    first = bg_err()
    db.set_background_error(first)
    db.set_background_error(bg_err(PERSISTENT))
    assert db.background_error is first


def test_resume_without_error_is_a_noop():
    env = Environment()
    db, _, _ = small_db(env)
    db.resume()
    assert not db.read_only


def test_reads_still_served_in_read_only_mode():
    env = Environment()
    db, _, _ = small_db(env)
    run(env, db.put(encode_key(0), b"v0"))
    db.set_background_error(bg_err())
    assert run(env, db.get(encode_key(0))) == b"v0"


def test_flush_all_and_quiesce_raise_when_latched():
    env = Environment()
    db, _, _ = small_db(env)
    run(env, db.put(encode_key(0), b"v0"))
    db.set_background_error(bg_err())
    with pytest.raises(DeviceError):
        run(env, db.flush_all())


# ------------------------------------------- device-driven WAL latching
def faulty_db(env, seed=1, **opt_kw):
    """A small DB whose block device retries (and so raises DeviceError
    when a persistent fault is armed) instead of leaking InjectedFault."""
    reg = FaultRegistry(seed=seed).install(env)
    db, dev, cpu = small_db(env, small_options(**opt_kw))
    dev.retry = RetryExecutor(
        env, RetryPolicy(max_attempts=2, base_delay=1e-5, max_delay=1e-4),
        name="block")
    return reg, db, dev


def test_wal_group_commit_error_latches_background_error():
    env = Environment()
    reg, db, _ = faulty_db(env)
    # The armable site on the block-write path is the NAND program; the
    # retry executor classifies it and surfaces a DeviceError.
    reg.arm("nand.program", AlwaysPlan(), FaultAction(FAIL, note="persistent"))
    # 5 KiB > wal_group_commit_bytes (4 KiB): the put itself forces the
    # group commit, whose device write fails persistently.
    with pytest.raises(DeviceError) as ei:
        run(env, db.put(encode_key(0), b"x" * (5 << 10)))
    assert ei.value.kind == PERSISTENT
    assert db.read_only
    assert db.background_error is ei.value
    # The batch was NOT applied: not acked, not readable.
    reg.clear_arms()
    assert run(env, db.get(encode_key(0))) is None


def test_flush_error_parks_memtable_and_worker_survives():
    env = Environment()
    reg, db, _ = faulty_db(env)
    # Seal one memtable (16 KiB buffer, 1 KiB values), then let its
    # flush hit a persistent device error.
    for i in range(20):
        run(env, db.put(encode_key(i), b"v" * 1024))
        if db.immutable_count > 0:
            break
    assert db.immutable_count > 0
    reg.arm("nand.program", AlwaysPlan(), FaultAction(FAIL, note="persistent"))
    tick(env, 0.2)
    assert db.read_only
    assert db._paused_flushes, "failed flush was not parked"
    assert db._flush_proc.is_alive, "flush worker died on DeviceError"
    # No partial SST left behind.
    assert not [n for n in db.fs.list_files() if ".sst-" in n]

    # Device healthy again: resume() re-queues the parked flush.
    reg.clear_arms()
    db.resume()
    run(env, db.wait_for_quiesce())
    assert db.stats.flushes >= 1
    assert not db._paused_flushes
    for i in range(5):
        assert run(env, db.get(encode_key(i))) == b"v" * 1024


def test_crash_and_recover_clears_the_latch():
    env = Environment()
    db, _, _ = small_db(env)
    run(env, db.put(encode_key(0), b"v0"))
    db.set_background_error(bg_err())
    report = run(env, db.crash_and_recover())
    assert not db.read_only
    assert report["replayed_records"] >= 0
    run(env, db.put(encode_key(1), b"v1"))   # writable again
