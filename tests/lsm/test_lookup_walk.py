"""The host point lookup's one pass equals the probe walk it replaced.

``DbImpl._get_from_ssts`` takes the candidate list of
``Version.files_for_key``, hashes the key once and asks each candidate's
filter in turn; only a filter-positive table reads its block.  The
reference (``tests/sstable_reference.py``) walks a generator of candidates
and calls one ``probe`` per table.  Both run over the same files, each
over its own tables: they must return the same entry, charge the same
reads in the same order and fill the same filters, query by query.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db, small_options  # noqa: E402
from sstable_reference import (  # noqa: E402
    ReferenceSSTable,
    reference_get_from_ssts,
)

from repro.lsm import (  # noqa: E402
    BloomFilter,
    FileMetadata,
    SSTable,
    VersionEdit,
    key_hash,
)
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key, make_entry  # noqa: E402

# Files are installed by hand below; no background job may move them.
_QUIET = small_options(level0_file_num_compaction_trigger=100,
                       level0_slowdown_writes_trigger=100,
                       level0_stop_writes_trigger=100)
# Small blocks, so a table has several and reads differ in size.
_BLOCK = 128


def _entries(number, keys):
    """File ``number``'s rows: the number is every row's sequence (newer
    files hold newer data) and names the value; every seventh row is a
    tombstone."""
    return [make_entry(encode_key(k), number,
                       None if (k + number) % 7 == 0 else b"f%d" % number)
            for k in sorted(keys)]


class _Side:
    """A DB holding ``files`` (``(number, level, keys)``) as ``table_cls``
    tables, recording every charged read as ``(file, offset, bytes)``."""

    def __init__(self, table_cls, files, bits_per_key):
        self.env = env = Environment()
        self.db = db = small_db(env, _QUIET)[0]
        for number, level, keys in files:
            table = table_cls(number, _entries(number, keys), _BLOCK,
                              bits_per_key)
            run(env, db.fs.append(db.fs.create(db._sst_name(number)),
                                  table.file_bytes))
            db.versions.apply(VersionEdit(added=[
                FileMetadata(number=number, level=level, table=table)]))
        self.reads = []
        read = db.fs.read

        def recording_read(f, offset, nbytes, priority=0):
            self.reads.append((f.name, offset, nbytes))
            return read(f, offset, nbytes, priority)
        db.fs.read = recording_read

    def filled(self):
        return {meta.number for files in self.db.versions.current.levels
                for meta in files if meta.table._bloom.num_added}


def assert_same_lookups(files, bits_per_key, queries):
    new = _Side(SSTable, files, bits_per_key)
    ref = _Side(ReferenceSSTable, files, bits_per_key)
    for q in queries:
        key = encode_key(q)
        got = run(new.env, new.db._get_from_ssts(key))
        assert got == run(ref.env, reference_get_from_ssts(ref.db, key))
        assert new.reads == ref.reads
        assert new.filled() == ref.filled()
    return new


@st.composite
def layouts(draw):
    """``(files, bits_per_key)``: one to three sorted levels of disjoint
    files with gaps between them, and up to eight overlapping L0 files
    above, newest numbered last; 1-40 keys a file, so filters differ in
    size, and odd bit counts come with the odd ``bits_per_key``."""
    files, number = [], 1
    for level in (3, 2, 1):                 # deeper levels, older files
        bounds = sorted(draw(st.sets(st.integers(0, 300), max_size=12)))
        for lo, hi in zip(bounds[::2], bounds[1::2]):
            inner = draw(st.sets(st.integers(lo, hi), max_size=38))
            files.append((number, level, inner | {lo, hi}))
            number += 1
    for _ in range(draw(st.integers(0, 8))):
        keys = draw(st.sets(st.integers(0, 300), min_size=1, max_size=40))
        files.append((number, 0, keys))
        number += 1
    return files, draw(st.sampled_from([1, 3, 5, 7, 10]))


@settings(max_examples=100, deadline=None)
@given(layouts(), st.lists(st.integers(0, 305), min_size=1, max_size=40))
def test_lookup_walk_equals_the_probe_walk(layout, queries):
    files, bits_per_key = layout
    assert_same_lookups(files, bits_per_key, queries)


def test_odd_filters_with_zero_strides_answer_as_the_probe_walk():
    """Thirteen keys at five bits a key make 65-bit filters (k = 3); a key
    whose stride ``h2 mod 65`` is 0 probes one bit three times."""
    assert (BloomFilter(13, 5).num_bits, BloomFilter(13, 5).k) == (65, 3)
    files = [(1, 2, range(0, 1950, 150)), (2, 1, range(7, 1957, 150))]
    files += [(n, 0, range(n * 11, 1950, 150)) for n in range(3, 9)]
    queries = range(1960)
    zero = [q for q in queries if key_hash(encode_key(q))[1] % 65 == 0]
    assert len(zero) >= 20
    new = assert_same_lookups(files, 5, queries)
    assert new.reads                        # false positives and hits read
    assert new.filled() == set(range(1, 9))
