"""Resident state is live state: once flushes and compactions settle, the
only SSTables alive are the ones the current version references.

The manifest journal records what a MANIFEST holds per file (number, level,
key range, size), not the table, so a table compaction deletes is freed
with its entries, block index and bloom.
"""

import gc
import sys
import weakref
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db  # noqa: E402

from repro.lsm import SSTable  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402


def test_only_the_current_version_keeps_tables_alive(monkeypatch):
    built = weakref.WeakSet()
    count = [0]
    build = SSTable._build      # both constructors (entries, columns)

    def tracked(self, *args, **kwargs):
        build(self, *args, **kwargs)
        built.add(self)
        count[0] += 1

    monkeypatch.setattr(SSTable, "_build", tracked)
    env = Environment()
    db, _, _ = small_db(env)

    def load():
        for i in range(2000):
            yield from db.put(encode_key(i * 7919 % 2000), b"v%d" % i * 8)
    run(env, load())
    run(env, db.wait_for_quiesce())
    run(env, db.crash_and_recover())
    run(env, db.wait_for_quiesce())
    gc.collect()

    current = {f.table for level in db.versions.current.levels
               for f in level}
    assert db.stats.flushes > 3 and db.stats.compactions > 1
    assert count[0] > 2 * len(current)  # most tables built were dropped
    assert set(built) == current
    assert len(db.versions.manifest_journal) > db.stats.compactions
