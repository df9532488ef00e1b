"""The columnar SSTable and the column merge answer as the tuple list did.

``SSTable`` stores its entries as columns (a key list, sequence/seed/size
arrays, a kinds string, a dict for the other values) and compaction
merges those columns through a sorted permutation.  The reference in
``tests/sstable_reference.py`` holds entry tuples and merges with
``newest_wins``; every answer the DB reads from a table — entries, probe
results and their I/O, seeks, block layout, file size, the bloom's bits —
and every file compaction writes must be the same.
"""

import gc
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import (
    CompactionJob,
    DictMemTable,
    FileMetadata,
    SSTable,
    merge_for_compaction,
    split_into_files,
)
from repro.lsm.compaction import cut_by_count
from repro.lsm.sstable import iter_rows, to_columns
from repro.types import KIND_DELETE, ValueRef, encode_key, make_entry

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from sstable_reference import (  # noqa: E402
    ReferenceSSTable,
    newest_wins,
    reference_merge,
    reference_split,
)

# Seeds cover negatives and int64's edges and beyond; sizes and key widths
# are mixed, so entries differ in size.
seeds = st.one_of(st.integers(-(1 << 63), (1 << 63) - 1),
                  st.integers(1 << 63, 1 << 80),
                  st.integers(-(1 << 80), -(1 << 63) - 1),
                  st.sampled_from([-1, 0, (1 << 63) - 1, 1 << 63,
                                   -(1 << 63), -(1 << 63) - 1]))
values = st.one_of(
    st.builds(ValueRef, seed=seeds, size=st.integers(0, 5000)),
    st.binary(max_size=300),
    st.none(),                                   # tombstone
)
keys = st.one_of(st.integers(0, 4000).map(encode_key),
                 st.builds(encode_key, st.integers(0, 255),
                           st.integers(1, 8)),
                 st.binary(min_size=1, max_size=12))
entry_lists = st.dictionaries(keys, st.tuples(st.integers(1, 1 << 62),
                                              values),
                              min_size=1, max_size=60).map(
    lambda d: [make_entry(k, seq, v, kind=KIND_DELETE if v is None else None)
               for k, (seq, v) in sorted(d.items())])


def assert_same_table(t, ref, probes):
    assert t.entries == ref.entries
    assert (t.smallest, t.largest, t.num_entries) == (
        ref.smallest, ref.largest, len(ref.entries))
    assert t.num_blocks == ref.num_blocks
    assert [t.block_bytes(b) for b in range(t.num_blocks)] == [
        ref.block_bytes(b) for b in range(ref.num_blocks)]
    assert (t.file_bytes, t.data_bytes, t.entry_bytes) == (
        ref.file_bytes, ref.data_bytes, ref.entry_bytes)
    for key in probes:
        r = t.probe(key)
        assert (r.entry, r.bytes_read, r.bloom_negative) == ref.probe(key)
        assert t.lower_bound(key) == ref.lower_bound(key)
        assert list(t.iter_from(key)) == list(ref.iter_from(key))
    assert list(t.iter_from()) == ref.entries
    assert t.bloom._bits == ref.bloom._bits
    assert (t.bloom.num_bits, t.bloom.k) == (ref.bloom.num_bits, ref.bloom.k)


@settings(max_examples=150, deadline=None)
@given(entry_lists, st.lists(keys, max_size=20),
       st.sampled_from([64, 512, 4096]), st.integers(1, 16))
def test_columnar_table_equals_the_tuple_list(entries, absent, block_size,
                                              bits):
    ref = ReferenceSSTable(1, entries, block_size, bits)
    probes = [e[0] for e in entries] + absent
    built = SSTable(1, entries, block_size=block_size,
                    bloom_bits_per_key=bits)
    assert_same_table(built, ref, probes)
    from_columns = SSTable.from_columns(1, to_columns(entries), block_size,
                                        bits)
    assert_same_table(from_columns, ref, probes)
    assert SSTable.from_bytes(1, built.to_bytes(), block_size,
                              bits).to_bytes() == built.to_bytes()


def test_values_that_do_not_fit_the_arrays_keep_their_identity():
    big = ValueRef(1 << 63, 100)
    entries = [make_entry(encode_key(1), 3, big),
               make_entry(encode_key(2), 4, ValueRef(-(1 << 63), 7)),
               make_entry(encode_key(3), 5, b"bytes"),
               make_entry(encode_key(4), 6, None, kind=KIND_DELETE),
               make_entry(encode_key(5), 7, ValueRef(-5, 0))]
    t = SSTable(1, entries)
    assert t.entries == entries
    assert sorted(t.columns[5]) == [0, 2, 3]    # rows kept as values
    assert list(t.columns[3]) == [0, -(1 << 63), 0, 0, -5]
    assert list(t.columns[4]) == [100, 7, 5, 0, 0]
    assert t.probe(encode_key(1)).entry[3] == big
    assert t.probe(encode_key(4)).entry == entries[3]


# -- compaction ---------------------------------------------------------------
def job_of(sources, output_level, block_size=256):
    return CompactionJob(
        level=output_level - 1, output_level=output_level,
        inputs_low=[FileMetadata(number=n + 1, level=output_level - 1,
                                 table=SSTable(n + 1, src,
                                               block_size=block_size))
                    for n, src in enumerate(sources)])


# Sources written at increasing sequence numbers: a key repeated across
# sources is a newer or older version of it.
source_specs = st.lists(st.dictionaries(keys, values, max_size=25),
                        min_size=1, max_size=6)


def build_sources(specs):
    seq, sources = 0, []
    for spec in specs:
        src = []
        for k in sorted(spec):
            seq += 1
            v = spec[k]
            src.append(make_entry(k, seq, v,
                                  kind=KIND_DELETE if v is None else None))
        if src:
            sources.append(src)
    return sources


@settings(max_examples=120, deadline=None)
@given(source_specs, st.integers(1, 6), st.integers(1, 20000),
       st.booleans())
def test_mixed_size_files_equal_the_tuple_lists(specs, output_level, target,
                                                reverse):
    """Merge, cut by summed sizes and build: the same files, entry for
    entry and byte for byte, as the tuple-list merge and cut."""
    sources = build_sources(specs)
    if not sources:
        return
    if reverse:
        sources.reverse()
    job = job_of(sources, output_level)
    bottommost = output_level == 6
    files = [SSTable.from_columns(n, columns, block_size=512)
             for n, columns in enumerate(split_into_files(
                 merge_for_compaction(job, num_levels=7), target))]
    ref = [ReferenceSSTable(n, group, block_size=512)
           for n, group in enumerate(reference_split(
               reference_merge(sources, bottommost), target))]
    assert len(files) == len(ref)
    for t, r in zip(files, ref):
        assert_same_table(t, r, [e[0] for e in r.entries])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 5000),
       st.lists(st.sets(st.integers(0, 255), max_size=40), min_size=1,
                max_size=5),
       st.integers(1, 40000))
def test_equal_size_files_equal_the_tuple_lists(width, vsize, key_sets,
                                                target):
    seq, sources = 0, []
    for ks in key_sets:
        src = []
        for k in sorted(ks):
            seq += 1
            src.append(make_entry(encode_key(k, width), seq,
                                  ValueRef(k * seq, vsize)))
        if src:
            sources.append(src)
    if not sources:
        return
    job = job_of(sources, 2)
    size = width + vsize + 8
    assert job.entry_bytes == size
    files = cut_by_count(merge_for_compaction(job, num_levels=7), size,
                         target)
    ref = reference_split(reference_merge(sources, False), target)
    assert [list(iter_rows(c)) for c in files] == ref


@pytest.mark.parametrize("a, b", [
    (ValueRef(1, 100), ValueRef(2, 100)),
    (ValueRef(1, 100), b"bytes"),
    (b"one", b"two"),
    (ValueRef(1, 100), None),
])
def test_two_distinct_writes_under_one_seq_fail_the_compaction(a, b):
    """A sequence number names one write; the merge refuses to pick
    between two different rows under one (key, seq)."""
    k = encode_key(1)

    def entry(v):
        return make_entry(k, 5, v, kind=KIND_DELETE if v is None else None)

    job = job_of([[entry(a)], [entry(b)]], 1)
    with pytest.raises(TypeError):
        merge_for_compaction(job, num_levels=7)


@pytest.mark.parametrize("order", ["ABC", "BAC", "ACB", "ADC", "DACB"])
def test_distinct_writes_under_one_seq_fail_beside_other_versions(order):
    """The two seq-5 rows A and C differ; a newer (B, seq 7) or a copy of
    A (D) sorting before or between them does not hide that."""
    k = encode_key(3)
    rows = {"A": make_entry(k, 5, ValueRef(1, 100)),
            "B": make_entry(k, 7, ValueRef(9, 100)),
            "C": make_entry(k, 5, ValueRef(2, 100)),
            "D": make_entry(k, 5, ValueRef(1, 100))}
    sources = [[rows[name]] for name in order]
    with pytest.raises(TypeError):
        newest_wins(sources)
    with pytest.raises(TypeError):
        merge_for_compaction(job_of(sources, 1), num_levels=7)


def test_copies_of_one_write_merge_to_one_row():
    k = encode_key(7)
    original = make_entry(k, 9, ValueRef(7, 100))
    copy = make_entry(k, 9, ValueRef(7, 100))
    older = make_entry(k, 3, ValueRef(3, 100))
    newer = make_entry(k, 12, None, kind=KIND_DELETE)
    for sources, want in (([[original], [copy]], [original]),
                          ([[copy], [older], [original]], [original]),
                          ([[older], [original], [newer], [copy]], [newer])):
        merged = merge_for_compaction(job_of(sources, 1), num_levels=7)
        assert list(iter_rows(merged)) == want
        bottom = merge_for_compaction(job_of(sources, 6), num_levels=7)
        assert list(iter_rows(bottom)) == [e for e in want
                                           if e[2] != KIND_DELETE]


# -- resident bytes -----------------------------------------------------------
def test_a_flushed_table_holds_few_bytes_per_entry():
    """A 4,096-entry table of ``ValueRef`` writes, built as flush builds
    it, holds well under half the ~217 bytes an entry a list of entry
    tuples held (tuple, ValueRef, seed int, sequence int, key)."""
    n = 4096

    def flushed_table():
        mem = DictMemTable()
        for i in range(n):
            key = encode_key((i * 7919) % (1 << 30))
            mem.add(make_entry(key, 1_000_000 + i,
                               ValueRef(int.from_bytes(key, "big"), 4096)))
        return SSTable.from_columns(1, mem.columns(),
                                    entry_bytes=mem.entry_bytes)

    gc.collect()
    tracemalloc.start()
    try:
        # A first table fills the interpreter's free lists (dropped entry
        # tuples stay allocated there), so the second counts only itself.
        flushed_table()
        before = tracemalloc.get_traced_memory()[0]
        table = flushed_table()
        per_entry = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert table.num_entries == n
    assert per_entry < 100, f"{per_entry:.1f} bytes an entry"
