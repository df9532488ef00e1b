"""Tables of key integers answer as the seed-column tables did.

A table stores its keys as integers when they share one width of at most
8 bytes, implies each row's seed (the key integer) and, when the rows
share one, its value size.  ``tests/sstable_reference.py`` keeps the
previous layout (a key ``bytes`` list, a seed and a size a row) with its
merge, file cuts and read path.  Both are built from the same entries:
4-byte keys, keys of several widths and of more than 8 bytes, implied and
foreign seeds (beyond int64 too), ``bytes`` values, tombstones, one value
size or many.  Every answer must agree: probes and their costs, seeks,
rows, the block layout, file sizes, the filter's bits, and the rows and
files of every merge.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import SSTable
from repro.lsm.compaction import cut_by_count, merge_columns, split_into_files
from repro.lsm.sstable import (
    dict_columns,
    iter_rows,
    key_list,
    lower_bound,
    rows_at,
    to_columns,
)
from repro.types import KIND_DELETE, ValueRef, encode_key, make_entry

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from sstable_reference import (  # noqa: E402
    SeedColumnSSTable,
    reference_may_contain,
    seed_cut_by_count,
    seed_dict_columns,
    seed_iter_rows,
    seed_merge_columns,
    seed_split_into_files,
    seed_to_columns,
)

# Key sets: mostly one width (4 bytes, as every cell writes, or another of
# 1-8), sometimes several widths or a width past 8 bytes.
widths = st.one_of(st.just(4), st.integers(1, 10))
key_sets = st.one_of(
    st.tuples(widths, st.sets(st.integers(0, 1 << 20), min_size=1,
                              max_size=50)).map(
        lambda t: {encode_key(k % (1 << 8 * t[0]), t[0]) for k in t[1]}),
    st.sets(st.binary(min_size=1, max_size=10), min_size=1, max_size=40),
)
seeds = st.one_of(st.integers(-(1 << 70), 1 << 70),
                  st.sampled_from([-1, 0, (1 << 63) - 1, 1 << 63,
                                   -(1 << 63) - 1]))
# A value given the key: the implied ValueRef (most rows), a foreign seed,
# bytes or a tombstone.
value_makers = st.one_of(
    st.integers(0, 3).map(lambda size: lambda key: ValueRef(
        int.from_bytes(key, "big"), 4096 + size)),
    st.integers(0, 3).map(lambda size: lambda key: ValueRef(
        int.from_bytes(key, "big"), 4096)),
    st.tuples(seeds, st.integers(0, 5000)).map(
        lambda t: lambda key: ValueRef(*t)),
    st.binary(max_size=40).map(lambda b: lambda key: b),
    st.just(lambda key: None),
)
# Every row of a list shares one value size when ``fixed``.
fixed_value = st.just(lambda key: ValueRef(int.from_bytes(key, "big"),
                                           4096))


@st.composite
def entry_lists(draw, seq_base=1):
    keys = sorted(draw(key_sets))
    if draw(st.booleans()):
        makers = [draw(fixed_value)] * len(keys)
    else:
        makers = draw(st.lists(value_makers, min_size=len(keys),
                               max_size=len(keys)))
    entries = []
    for i, (key, make) in enumerate(zip(keys, makers)):
        value = make(key)
        entries.append(make_entry(key, seq_base + i, value,
                                  kind=KIND_DELETE if value is None
                                  else None))
    return entries


def absent_keys(entries):
    """Keys beside, between and around the table's: one byte shorter and
    longer than each, and one past each."""
    out = [b"", b"\x00", b"\xff" * 9]
    for key, *_ in entries[:12]:
        out += [key[:-1], key + b"\x00", key + b"\xff",
                (int.from_bytes(key, "big") + 1).to_bytes(len(key) + 1,
                                                          "big")]
    return out


def reference_probe(ref, key):
    """``SSTable.probe`` over the reference: range, filter, block."""
    if not ref.smallest <= key <= ref.largest:
        return None, 0, False
    if not reference_may_contain(ref.bloom, key):
        return None, 0, True
    return (*ref.read_block(key), False)


def assert_same_table(t, ref, probes):
    assert t.entries == list(ref.iter_from())
    assert (t.smallest, t.largest, t.num_entries, t.entry_bytes) == (
        ref.smallest, ref.largest, len(ref.columns[0]), ref.entry_bytes)
    assert t.num_blocks == ref.num_blocks
    assert [t.block_bytes(b) for b in range(t.num_blocks)] == [
        ref.block_bytes(b) for b in range(ref.num_blocks)]
    assert (t.data_bytes, t.file_bytes) == (ref.data_bytes, ref.file_bytes)
    assert t.bloom._bits == ref.bloom._bits
    for key in probes:
        r = t.probe(key)
        assert (r.entry, r.bytes_read, r.bloom_negative) == reference_probe(
            ref, key)
        if ref.smallest <= key <= ref.largest:
            assert t.read_block(key) == ref.read_block(key)
        assert t.lower_bound(key) == ref.lower_bound(key)
        assert list(t.iter_from(key)) == list(ref.iter_from(key))


@settings(max_examples=200, deadline=None)
@given(entry_lists(), st.sampled_from([64, 512, 4096, 16 * 1024]),
       st.integers(1, 16))
def test_a_table_answers_as_the_seed_column_table(entries, block_size,
                                                  bits):
    keys = [e[0] for e in entries]
    ref = SeedColumnSSTable(1, seed_to_columns(entries), block_size, bits)
    t = SSTable(1, entries, block_size=block_size, bloom_bits_per_key=bits)
    assert_same_table(t, ref, keys + absent_keys(entries))
    assert key_list(t.columns) == keys
    one_width = len({len(k) for k in keys}) == 1 and len(keys[0]) <= 8
    assert (t.columns[1] is not None) == one_width
    # A flush's columns, with and without the one entry size handed over.
    memtable = {e[0]: e for e in entries}
    for hint in {None, t.entry_bytes}:
        flushed = SSTable.from_columns(1, dict_columns(memtable, hint),
                                       block_size, bits)
        assert_same_table(flushed, SeedColumnSSTable(
            1, seed_dict_columns(memtable), block_size, bits), keys)
    rows = list(range(len(entries)))[::-2]
    assert rows_at(t.columns, rows) == [entries[i] for i in rows]
    for key in keys + absent_keys(entries):
        assert lower_bound(t.columns, key) == ref.lower_bound(key)


@st.composite
def merge_inputs(draw):
    """Parts written at increasing sequence numbers, so a key in several
    parts has a newer and an older version."""
    parts, seq = [], 1
    for _ in range(draw(st.integers(1, 5))):
        part = draw(entry_lists(seq_base=seq))
        seq += len(part)
        parts.append(part)
    return parts


@settings(max_examples=200, deadline=None)
@given(merge_inputs(), st.booleans(), st.integers(1, 30000))
def test_a_merge_and_its_files_are_the_seed_column_merge(parts, bottommost,
                                                         target):
    merged = merge_columns([to_columns(p) for p in parts], bottommost)
    ref = seed_merge_columns([seed_to_columns(p) for p in parts], bottommost)
    assert list(iter_rows(merged)) == list(seed_iter_rows(ref))
    files = split_into_files(merged, target)
    ref_files = seed_split_into_files(ref, target)
    entry_bytes = {SSTable(1, p).entry_bytes for p in parts}
    if len(entry_bytes) == 1 and None not in entry_bytes:
        size = entry_bytes.pop()
        assert cut_by_count(merged, size, target) == files
        assert [list(iter_rows(c)) for c in files] == [
            list(seed_iter_rows(c))
            for c in seed_cut_by_count(ref, size, target)]
    assert [list(iter_rows(c)) for c in files] == [
        list(seed_iter_rows(c)) for c in ref_files]
    for columns, ref_columns in zip(files, ref_files):
        t = SSTable.from_columns(1, columns, block_size=512)
        r = SeedColumnSSTable(1, ref_columns, block_size=512)
        assert_same_table(t, r, key_list(columns)[:10])
