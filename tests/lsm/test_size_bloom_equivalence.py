"""Carried sizes and the deferred bloom equal what they replaced.

The formulas below are the ones SSTable, split_into_files, flush and
Dev-LSM used to evaluate per call (``entry_size`` re-summed, one
``BloomFilter.add`` per key on a big-int bit array); the values the code now
carries must equal them exactly — file sizes drive simulated I/O and bloom
false positives drive read I/O.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import (
    BloomFilter,
    DictMemTable,
    SkipListMemTable,
    SSTable,
    key_hash,
    split_into_files,
)
from repro.types import (
    KIND_DELETE,
    ValueRef,
    encode_key,
    entry_size,
    make_entry,
    value_size,
)

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
    # sizes handed over by the caller build the same table
    same = SSTable(1, entries, block_size=block_size, bloom_bits_per_key=bits,
                   sizes=[old_entry_size(e) for e in entries])
    assert (same.file_bytes, same.data_bytes, same.num_blocks) == (
        t.file_bytes, t.data_bytes, t.num_blocks)
    for e in entries:
        assert t.probe(e[0]).entry == e


@settings(max_examples=60, deadline=None)
@given(entry_lists, st.integers(1, 3000))
def test_split_into_files_carries_the_sizes_it_cut_by(entries, target):
    groups = split_into_files(entries, target)
    assert [e for group, _sizes in groups for e in group] == entries
    for group, sizes in groups:
        assert group and sizes == [old_entry_size(e) for e in group]
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
    assert [group for group, _sizes in groups] == expect


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
