"""A merge copy that goes stale inside Main-LSM's write path.

A rollback merges the Dev-LSM's copy of K into Main-LSM while a normal
write of K lands there and its memtable flushes to an SST.  The merge
chunk is held at one point of ``DbImpl.write_entries`` while that happens;
the older copy must then be neither applied (it would shadow the newer
value from a newer memtable) nor replayed from the WAL after a host crash
(``crash_and_recover``: memtables lost, WAL replayed).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_kvaccel  # noqa: E402

from repro.sim import Environment  # noqa: E402
from repro.types import ValueRef, encode_key  # noqa: E402


def _write_k_during_the_merge(hold_point) -> tuple:
    """Redirect an old value of K, then roll back while the merge chunk
    carrying it is held in the first call of the method that
    ``hold_point(db)`` names as ``(owner, name)``.  Returns whether K reads
    back the newer value live and after the host crash."""
    env = Environment()
    db, _ssd, _cpu = small_kvaccel(env, rollback="disabled")
    db.detector.stop()
    key = encode_key(7)
    # Larger than a WAL commit group, so the chunk's append flushes.
    old, new = ValueRef(seed=1, size=8192), ValueRef(seed=2, size=8192)
    owner, name = hold_point(db)
    method = getattr(owner, name)
    held, release = env.event(), env.event()

    def holding(*args, **kw):
        setattr(owner, name, method)
        held.succeed()
        yield release
        return (yield from method(*args, **kw))

    def scenario():
        db.detector.stall_condition = True
        yield from db.put(key, old)             # redirected to the Dev-LSM
        db.detector.stall_condition = False
        setattr(owner, name, holding)
        rollback = env.process(db.rollback_manager.rollback_once())
        yield held
        yield from db.put(key, new)             # lands in Main-LSM...
        yield from db.main.flush_all()          # ...and reaches an SST
        release.succeed()
        yield rollback
        live = yield from db.get(key)
        yield from db.main.wal.sync()
        yield from db.main.crash_and_recover()
        return live, (yield from db.get(key)), new

    live, after_crash, new = run(env, scenario())
    db.close()
    return live == new, after_crash == new


def _at_the_gate(db):
    return db.main.write_controller, "gate"


def _in_the_wal_flush(db):
    # The rollback's first block-device write is its chunk's WAL group.
    return db.main.wal.fs.device, "write"


def test_a_merge_entry_gone_stale_at_the_gate_is_neither_applied_nor_logged():
    """The staleness check just before the WAL append: without it the
    older copy is logged, and replay after the crash puts it in a memtable
    newer than the SST holding the newer value."""
    assert _write_k_during_the_merge(_at_the_gate) == (True, True)


def test_a_merge_entry_gone_stale_in_the_wal_flush_is_not_applied():
    """The staleness check at the memtable insert: the newer write's
    memtable was sealed while the chunk's WAL group flushed, so applying
    the older copy would put it in the newer memtable."""
    live, _after_crash = _write_k_during_the_merge(_in_the_wal_flush)
    assert live


def test_a_merge_entry_gone_stale_in_the_wal_flush_is_not_replayed():
    """The copy was logged before it went stale, into the segment opened
    by the seal; replay must not apply it over the newer value's SST."""
    _live, after_crash = _write_k_during_the_merge(_in_the_wal_flush)
    assert after_crash
