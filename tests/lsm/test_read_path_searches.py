"""The point-read path hashes a key once; sorted data is searched by bisect.

Mechanism pins for the read path: how often a lookup hashes, and that the
bisect searches on sorted structures return what the linear scans they
replaced return (the linear versions live on here as the reference).
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db, small_options  # noqa: E402
from memtable_reference import SkipListMemTable  # noqa: E402

from repro.lsm import (  # noqa: E402
    DictMemTable,
    FileMetadata,
    SSTable,
    Version,
    VersionEdit,
    bloom,
)
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key, make_entry  # noqa: E402


# Files are installed by hand below; no background job may move them.
_QUIET = small_options(level0_file_num_compaction_trigger=100,
                       level0_slowdown_writes_trigger=100,
                       level0_stop_writes_trigger=100)


# -- one hash per lookup ---------------------------------------------------------
def test_get_hashes_its_key_once_however_many_files_it_probes(monkeypatch):
    env = Environment()
    db, _, _ = small_db(env, _QUIET)
    seq = iter(range(1, 10_000))

    def install(level, keys):
        number = db.versions.new_file_number()
        table = SSTable(number, [make_entry(encode_key(k), next(seq), b"v%d" % k)
                                 for k in keys])
        run(env, db.fs.append(db.fs.create(db._sst_name(number)),
                              table.file_bytes))
        db.versions.apply(VersionEdit(
            added=[FileMetadata(number=number, level=level, table=table)]))

    install(2, range(0, 600, 3))            # holds 300
    install(1, range(1, 600, 3))
    for offset in (2, 5, 8, 11):            # four overlapping L0 files
        install(0, range(offset, 600, 12))
    target = encode_key(300)
    candidates = db.versions.current.files_for_key(target)
    assert [m.level for m in candidates] == [0, 0, 0, 0, 1, 2]
    for meta in candidates:
        meta.table.bloom                    # fill side done: it hashes too

    calls = []

    class CountingState:
        """Every key is hashed by a copy of the module's state: record
        what each copy is fed."""

        def __init__(self, state):
            self.state = state

        def copy(self):
            return CountingState(self.state.copy())

        def update(self, data):
            calls.append(data)
            self.state.update(data)

        def digest(self):
            return self.state.digest()

    monkeypatch.setattr(bloom, "_BLAKE2B_16",
                        CountingState(bloom._BLAKE2B_16))

    assert run(env, db.get(target)) == b"v300"
    assert calls == [target]                # six probes, one digest

    del calls[:]
    assert run(env, db.get(encode_key(10**6))) is None
    assert calls == []                      # no file covers it: never hashed

    run(env, db.put(encode_key(300), b"newer"))
    assert run(env, db.get(target)) == b"newer"
    assert calls == []                      # answered by the memtable


# -- bisect searches against the scans they replaced ---------------------------
def _meta(number, level, lo, hi):
    return FileMetadata(number=number, level=level, table=SSTable(
        number, [make_entry(encode_key(k), number, b"v")
                 for k in sorted({lo, hi})]))


# Disjoint sorted key ranges for one L1+ level: consecutive pairs of a
# sorted set of distinct bounds (a pair may be a single-key file).
_level_bounds = st.sets(st.integers(0, 400), min_size=0, max_size=24).map(
    lambda s: sorted(s)[: len(s) // 2 * 2])


@settings(max_examples=200, deadline=None)
@given(_level_bounds, st.lists(st.tuples(st.integers(0, 400),
                                         st.integers(0, 400)), max_size=8),
       st.integers(0, 405), st.integers(0, 405))
def test_version_range_queries_equal_the_linear_scans(bounds, l0_ranges, a, b):
    l1 = [_meta(10 + i, 1, bounds[2 * i], bounds[2 * i + 1])
          for i in range(len(bounds) // 2)]
    l0 = [_meta(100 + i, 0, min(r), max(r)) for i, r in enumerate(l0_ranges)]
    version = Version(3).apply(VersionEdit(added=l0 + l1))
    # An inverted query range is legal input: it matches files spanning it.
    smallest, largest = encode_key(a), encode_key(b)
    for level in range(version.num_levels):
        assert version.overlapping_files(level, smallest, largest) == [
            f for f in version.level_files(level)
            if f.table.overlaps(smallest, largest)]
    # what DbImpl.scan_internal reads of each sorted level
    for level in range(1, version.num_levels):
        assert version.level_files_from(level, smallest) == [
            m for m in version.level_files(level) if m.largest >= smallest]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 200), max_size=60),
       st.one_of(st.just(b""), st.integers(0, 201).map(encode_key)))
def test_dict_memtable_iter_from_equals_the_filtered_walk(keys, start_key):
    mem, skip = DictMemTable(), SkipListMemTable()
    for seq, k in enumerate(keys):
        entry = make_entry(encode_key(k), seq + 1, b"v%d" % seq)
        mem.add(entry)
        skip.add(entry)
    expect = [e for e in mem.entries() if e[0] >= start_key]
    assert list(mem.iter_from(start_key)) == expect
    assert list(skip.iter_from(start_key)) == expect
