"""Carried sizes and the deferred bloom equal what they replaced.

The formulas below are the ones SSTable, split_into_files, flush and
Dev-LSM used to evaluate per call (``entry_size`` re-summed, one
``BloomFilter.add`` per key on a big-int bit array); the values the code now
carries must equal them exactly — file sizes drive simulated I/O and bloom
false positives drive read I/O.
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import (
    BloomFilter,
    DictMemTable,
    SSTable,
    key_hash,
    split_into_files,
)
from repro.lsm.compaction import cut_by_count
from repro.lsm.sstable import (
    columns_bytes,
    dict_columns,
    entry_sizes,
    iter_rows,
    to_columns,
)
from repro.sim import Environment
from repro.types import (
    KIND_DELETE,
    ValueRef,
    encode_key,
    entry_size,
    make_entry,
    value_size,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import run, small_db  # noqa: E402
from memtable_reference import SkipListMemTable  # noqa: E402

values = st.one_of(
    st.binary(max_size=300),
    st.builds(ValueRef, seed=st.integers(0, 1 << 30),
              size=st.integers(0, 5000)),
    st.none(),                                   # tombstone
)
entry_lists = st.dictionaries(st.integers(0, 4000), values,
                              min_size=1, max_size=80).map(
    lambda d: [make_entry(encode_key(k), i + 1, d[k],
                          kind=KIND_DELETE if d[k] is None else None)
               for i, k in enumerate(sorted(d))])


# Lists whose entries all have one size: a fixed key width and one value
# size, as every benchmark cell writes (4-byte keys, 4 KiB values).
uniform_lists = st.tuples(
    st.integers(1, 8),                           # key width
    st.integers(0, 20000),                       # value size
    st.sets(st.integers(0, 255), min_size=1, max_size=120),
).map(lambda t: [make_entry(encode_key(k, t[0]), i + 1, ValueRef(k, t[1]))
                 for i, k in enumerate(sorted(t[2]))])


# -- the replaced formulas ------------------------------------------------------
def old_entry_size(entry):
    key, _seq, _kind, value = entry
    return len(key) + value_size(value) + 8


def old_blocks(entries, block_size):
    starts, nbytes, cur = [], [], 0
    for i, e in enumerate(entries):
        sz = old_entry_size(e)
        if not starts or cur + sz > block_size and cur > 0:
            starts.append(i)
            nbytes.append(0)
            cur = 0
        nbytes[-1] += sz
        cur += sz
    return starts, nbytes


def old_bloom_bits(keys, num_keys, bits_per_key):
    """One add per key, OR-ed into a big int; returns (bits, num_bits, k)."""
    ref = BloomFilter(num_keys, bits_per_key)
    n, k, bits = ref.num_bits, ref.k, 0
    for key in keys:
        digest = hashlib.blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        for i in range(k):
            bits |= 1 << ((h1 + i * h2) % n)
    return bits, n, k


def old_may_contain(bits, n, k, key):
    digest = hashlib.blake2b(key, digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    return all((bits >> ((h1 + i * h2) % n)) & 1 for i in range(k))


# -- sizes ------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(entry_lists, st.sampled_from([64, 512, 4096]), st.integers(1, 16))
def test_sstable_sizes_equal_resummed_entry_sizes(entries, block_size, bits):
    assert [entry_size(e) for e in entries] == [old_entry_size(e)
                                                for e in entries]
    t = SSTable(1, entries, block_size=block_size, bloom_bits_per_key=bits)
    starts, nbytes = old_blocks(entries, block_size)
    assert t.num_blocks == len(starts)
    assert [t.block_bytes(b) for b in range(t.num_blocks)] == nbytes
    assert [t.block_of_entry(i) for i in starts] == list(range(len(starts)))
    assert t.data_bytes == sum(old_entry_size(e) for e in entries)
    assert t.file_bytes == (t.data_bytes
                            + BloomFilter(len(entries), bits).size_bytes
                            + 24 * len(starts) + 128)
    # the sizes summed from the columns are the entries' sizes
    assert entry_sizes(t.columns) == [old_entry_size(e) for e in entries]
    assert columns_bytes(t.columns) == t.data_bytes
    for e in entries:
        assert t.probe(e[0]).entry == e


def assert_general_path_layout(t, entries, block_size, bits):
    """``t``'s blocks and sizes are the per-entry byte-budget cut's."""
    starts, nbytes = old_blocks(entries, block_size)
    assert t.num_blocks == len(starts)
    assert [t.block_bytes(b) for b in range(t.num_blocks)] == nbytes
    assert [t.block_of_entry(i) for i in range(len(entries))] == [
        b for b, start in enumerate(starts)
        for _ in range(start, (starts + [len(entries)])[b + 1])]
    assert t.data_bytes == sum(old_entry_size(e) for e in entries)
    assert t.file_bytes == (t.data_bytes
                            + BloomFilter(len(entries), bits).size_bytes
                            + 24 * len(starts) + 128)


@settings(max_examples=120, deadline=None)
@given(uniform_lists, st.sampled_from([64, 512, 4096, 16 * 1024, 5000]),
       st.integers(1, 16))
def test_one_entry_size_builds_the_per_entry_layout(entries, block_size, bits):
    """The closed-form block index (``per`` entries a block) is the
    byte-budget cut of equal sizes, whether the size is handed over
    (flush, compaction) or found by sizing the entries."""
    size = old_entry_size(entries[0])
    carried = SSTable.from_columns(1, dict_columns({e[0]: e for e in entries},
                                                   size),
                                   block_size=block_size,
                                   bloom_bits_per_key=bits)
    found = SSTable(1, entries, block_size=block_size,
                    bloom_bits_per_key=bits)
    assert carried.entry_bytes == found.entry_bytes == size
    for t in (carried, found):
        assert_general_path_layout(t, entries, block_size, bits)
        for e in entries:
            assert t.probe(e[0]).entry == e


@pytest.mark.parametrize("value_size, block_size, count", [
    (4096, 16 * 1024, 10),      # three 4,108-byte entries a block, 1 left
    (20000, 16 * 1024, 5),      # an entry larger than a block: one a block
    (100, 1000, 7),             # 112-byte entries, block not a multiple
    (4096, 16 * 1024, 1),       # a single entry
    (4096, 16 * 1024, 3),       # blocks exactly full
    (4084, 4096, 4),            # an entry exactly a block
])
def test_one_entry_size_edge_cases(value_size, block_size, count):
    entries = [make_entry(encode_key(k), k + 1, ValueRef(k, value_size))
               for k in range(count)]
    size = 4 + value_size + 8
    t = SSTable.from_columns(1, to_columns(entries), block_size=block_size)
    assert_general_path_layout(t, entries, block_size, 10)
    per = max(1, block_size // size)
    assert t.num_blocks == -(-count // per)


@settings(max_examples=60, deadline=None)
@given(entry_lists)
def test_mixed_sizes_carry_no_entry_size(entries):
    sizes = {old_entry_size(e) for e in entries}
    t = SSTable(1, entries, block_size=512)
    assert t.entry_bytes == (sizes.pop() if len(sizes) == 1 else None)


@settings(max_examples=60, deadline=None)
@given(entry_lists, st.integers(1, 3000))
def test_split_into_files_carries_the_sizes_it_cut_by(entries, target):
    files = split_into_files(to_columns(entries), target)
    groups = [list(iter_rows(columns)) for columns in files]
    assert [e for group in groups for e in group] == entries
    for columns, group in zip(files, groups):
        assert group and entry_sizes(columns) == [old_entry_size(e)
                                                  for e in group]
    # same cuts as accumulating entry by entry
    expect, cur, cur_bytes = [], [], 0
    for e in entries:
        sz = old_entry_size(e)
        if cur and cur_bytes + sz > target:
            expect.append(cur)
            cur, cur_bytes = [], 0
        cur.append(e)
        cur_bytes += sz
    expect.append(cur)
    assert groups == expect


@settings(max_examples=80, deadline=None)
@given(uniform_lists, st.integers(1, 60000))
def test_count_cut_is_the_byte_cut_of_equal_sizes(entries, target):
    """Targets below one entry included: a file always takes one."""
    size = old_entry_size(entries[0])
    columns = to_columns(entries)
    chunks = cut_by_count(columns, size, target)
    assert chunks == split_into_files(columns, target)
    if target < size:
        assert [list(iter_rows(c)) for c in chunks] == [[e] for e in entries]
    with pytest.raises(ValueError):
        cut_by_count(columns, size, 0)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 40), values),
                max_size=120))
def test_dict_memtable_entry_bytes(ops):
    """``entry_bytes`` is the size of every entry the memtable accepted
    while they all had one size, and None from the first that differed
    (a tombstone, a ``bytes`` value, an overwrite of another size)."""
    mem = DictMemTable()
    assert mem.entry_bytes is None
    accepted, newest = set(), {}
    for k, seq, v in ops:
        e = make_entry(encode_key(k), seq, v,
                       kind=KIND_DELETE if v is None else None)
        mem.add(e)
        if k not in newest or seq >= newest[k]:       # not a stale write
            newest[k] = seq
            accepted.add(old_entry_size(e))
        assert mem.entry_bytes == (next(iter(accepted))
                                   if len(accepted) == 1 else None)
        if mem.entry_bytes is not None:
            assert {old_entry_size(x) for x in mem.entries()} == {
                mem.entry_bytes}


def test_dict_memtable_entry_bytes_cases():
    k = [encode_key(i) for i in range(3)]

    def same(i, seq):
        return make_entry(k[i], seq, ValueRef(i, 4096))

    for odd in (make_entry(k[2], 9, None, kind=KIND_DELETE),   # tombstone
                make_entry(k[2], 9, b"x" * 100),               # bytes value
                make_entry(k[0], 9, ValueRef(0, 100))):        # overwrite
        mem = DictMemTable()
        mem.add(same(0, 1))
        mem.add(same(1, 2))
        assert mem.entry_bytes == 4 + 4096 + 8
        mem.add(odd)
        assert mem.entry_bytes is None
        mem.add(same(2, 10))            # equal sizes again: stays None
        assert mem.entry_bytes is None
    mem = DictMemTable()
    mem.add(same(0, 5))
    mem.add(make_entry(k[0], 4, None, kind=KIND_DELETE))   # stale: ignored
    mem.add(same(0, 6))                                    # same-size overwrite
    assert mem.entry_bytes == 4 + 4096 + 8


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60), values), max_size=120))
def test_memtable_bytes_are_exact(ops):
    """Flush charges CPU from approximate_bytes instead of re-summing."""
    for mem in (DictMemTable(), SkipListMemTable()):
        for seq, (k, v) in enumerate(ops):
            mem.add(make_entry(encode_key(k), seq + 1, v,
                               kind=KIND_DELETE if v is None else None))
        assert mem.approximate_bytes == sum(old_entry_size(e)
                                            for e in mem.entries())


def test_db_tables_carry_the_size_their_entries_share():
    """Through flushes and compactions of equal-size writes, then of
    tombstones mixed in, every live table's carried size and layout are
    those of its entries, sized one by one."""
    env = Environment()
    db, _, _ = small_db(env)

    def check():
        tables = [f.table for level in db.versions.current.levels
                  for f in level]
        assert tables
        for t in tables:
            sizes = {old_entry_size(e) for e in t.entries}
            assert t.entry_bytes == (sizes.pop() if len(sizes) == 1 else None)
            assert_general_path_layout(t, t.entries, t.block_size, 10)
        return {t.entry_bytes for t in tables}

    def load(deletes):
        for i in range(1500):
            key = encode_key(i * 7919 % 1500)
            if deletes and i % 3 == 0:
                yield from db.delete(key)
            else:
                yield from db.put(key, ValueRef(i, 300))

    run(env, load(False))
    run(env, db.wait_for_quiesce())
    compactions = db.stats.compactions
    assert compactions > 1 and check() == {4 + 300 + 8}
    run(env, load(True))
    run(env, db.wait_for_quiesce())
    assert db.stats.compactions > compactions and None in check()


# -- bloom ---------------------------------------------------------------------
def test_file_bytes_needs_no_filter_and_first_probe_builds_it():
    entries = [make_entry(encode_key(k), k + 1, b"v" * 20)
               for k in range(0, 400, 2)]
    t = SSTable(1, entries, block_size=1024)
    assert t.file_bytes > t.data_bytes
    assert t._bloom.num_added == 0 and not any(t._bloom._bits)
    assert t.probe(encode_key(1)).entry is None     # in range: probes filter
    assert t._bloom.num_added == len(entries)
    bits = bytes(t._bloom._bits)
    t.probe(encode_key(3))
    assert bytes(t._bloom._bits) == bits            # built once
    assert t.bloom.num_added == len(entries)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.binary(min_size=1, max_size=12), min_size=1, max_size=300),
       st.integers(1, 20))
def test_batched_bloom_bits_equal_add_per_key(keys, bits_per_key):
    keys = sorted(keys)
    old_bits, n, k = old_bloom_bits(keys, len(keys), bits_per_key)
    batched = BloomFilter(len(keys), bits_per_key)
    batched.add_all(keys)
    single = BloomFilter(len(keys), bits_per_key)
    for key in keys:
        single.add(key)
    assert (batched.num_bits, batched.k) == (n, k)
    assert int.from_bytes(batched._bits, "little") == old_bits
    assert single._bits == batched._bits
    assert single.num_added == batched.num_added == len(keys)


def test_deferred_bloom_agrees_on_10k_random_probes():
    rng = random.Random(12)
    present = sorted(rng.sample(range(1 << 20), 3000))
    entries = [make_entry(encode_key(k), i + 1, ValueRef(k, 100))
               for i, k in enumerate(present)]
    t = SSTable(7, entries)
    old_bits, n, k = old_bloom_bits([e[0] for e in entries], len(entries), 10)
    probes = [encode_key(rng.randrange(1 << 20)) for _ in range(10_000)]
    may = t.bloom.may_contain
    verdicts = [may(p) for p in probes]
    assert verdicts == [old_may_contain(old_bits, n, k, p) for p in probes]
    assert int.from_bytes(t.bloom._bits, "little") == old_bits
    assert all(may(e[0]) for e in entries)
    stored = {e[0] for e in entries}
    false_positives = sum(verdicts) - sum(p in stored for p in probes)
    assert 0 < false_positives < 300     # ~1% at 10 bits/key: some, not many


@pytest.mark.parametrize("bits_per_key, k", [(1, 1), (10, 7), (43, 30)])
@pytest.mark.parametrize("count", [0, 1, 7, 63, 64, 1000])
def test_array_fill_sets_the_bits_of_the_per_key_reference(count, bits_per_key,
                                                           k):
    rng = random.Random(count * 31 + bits_per_key)
    keys = [encode_key(x) for x in rng.sample(range(1 << 30), count)]
    old_bits, n, old_k = old_bloom_bits(keys, count, bits_per_key)
    bloom = BloomFilter(count, bits_per_key)
    assert (bloom.num_bits, bloom.k, old_k) == (n, k, k)
    bloom.add_all(key for key in keys)            # a one-shot generator
    assert int.from_bytes(bloom._bits, "little") == old_bits
    assert bloom.num_added == count
    assert len(bloom._bits) == (n + 7) // 8       # same bytearray, same size

    # A second batch ORs into the first (a filter sized for both).
    more = [encode_key(x) for x in rng.sample(range(1 << 30, 1 << 31), 40)]
    both_bits, n, _k = old_bloom_bits(keys + more, count + 40, bits_per_key)
    bloom = BloomFilter(count + 40, bits_per_key)
    bits = bloom._bits
    bloom.add_all(keys)
    bloom.add_all(iter(more))
    assert bloom._bits is bits
    assert int.from_bytes(bits, "little") == both_bits
    assert bloom.num_added == count + 40
    assert all(map(bloom.may_contain, keys + more))


def test_a_zero_stride_sets_one_bit_per_key():
    """With an odd bit count a key's stride ``(h2 | 1) mod n`` can be 0;
    then all ``k`` probes are one bit."""
    bloom = BloomFilter(13, 5)                    # n = 65, k = 3
    n, k = bloom.num_bits, bloom.k
    assert n % 2 == 1 and k > 1
    zero = [key for key in map(encode_key, range(2000))
            if key_hash(key)[1] % n == 0]
    assert len(zero) >= 5
    keys = zero[:5] + [encode_key(x) for x in range(3000, 3008)]
    old_bits, _n, _k = old_bloom_bits(keys, 13, 5)
    bloom.add_all(keys)
    assert int.from_bytes(bloom._bits, "little") == old_bits
    # The test probes one bit k times for such a key, as the fill set it.
    probes = list(map(encode_key, range(4000)))
    assert ([bloom.may_contain(p) for p in probes]
            == [old_may_contain(old_bits, n, k, p) for p in probes])
    assert sum(key_hash(p)[1] % n == 0 for p in probes) >= 20
    single = BloomFilter(13, 5)
    single.add(zero[0])
    assert int.from_bytes(single._bits, "little") == 1 << key_hash(zero[0])[0] % n


def test_a_second_add_all_keeps_the_first_fill():
    rng = random.Random(9)
    first = [encode_key(x) for x in rng.sample(range(1 << 20), 300)]
    second = [encode_key(x) for x in rng.sample(range(1 << 20), 300)]
    bloom = BloomFilter(600)
    bloom.add_all(first)
    filled = int.from_bytes(bloom._bits, "little")
    bloom.add_all(second + first[:50])            # overlaps the first fill
    both = int.from_bytes(bloom._bits, "little")
    assert both & filled == filled
    assert both == old_bloom_bits(first + second, 600, 10)[0]
    assert bloom.num_added == 650


def test_probing_by_hash_is_probing_by_key():
    rng = random.Random(5)
    present = sorted(rng.sample(range(1 << 20), 2000))
    entries = [make_entry(encode_key(x), i + 1, ValueRef(x, 100))
               for i, x in enumerate(present)]
    t = SSTable(3, entries, block_size=1024)
    bloom = t.bloom
    probes = [encode_key(rng.randrange(1 << 20)) for _ in range(10_000)]
    assert ([bloom.may_contain(p) for p in probes]
            == [bloom.may_contain_hash(key_hash(p)) for p in probes])
    for p in probes:
        digest = hashlib.blake2b(p, digest_size=16).digest()
        assert key_hash(p) == (int.from_bytes(digest[:8], "little"),
                               int.from_bytes(digest[8:], "little") | 1)

    stored = {e[0] for e in entries}
    seen = set()
    for p in probes + [encode_key(present[0] - 1), encode_key(1 << 21)]:
        by_key, by_hash = t.probe(p), t.probe(p, key_hash(p))
        assert by_key.entry == by_hash.entry
        assert by_key.bytes_read == by_hash.bytes_read
        assert by_key.bloom_negative == by_hash.bloom_negative
        seen.add("hit" if by_key.entry is not None
                 else "filter-negative" if by_key.bloom_negative
                 else "false-positive" if by_key.bytes_read
                 else "out-of-range")
        assert (by_key.entry is not None) == (p in stored)
    assert seen == {"hit", "filter-negative", "false-positive", "out-of-range"}
