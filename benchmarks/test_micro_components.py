"""Microbenchmarks of the core data structures (real pytest-benchmark
multi-round timing — these are Python wall-clock numbers, not simulated).

Covers the memtable the host LSM builds (a dict with a lazily sorted view)
and the hot-path structures every simulated op touches (bloom probe, SST
probe, merging iterator).
"""

import random

import pytest

from repro.lsm import BloomFilter, DictMemTable, SSTable, merging_iterator
from repro.types import encode_key, make_entry

N = 2000


def _entries(n=N, vlen=64):
    return [make_entry(encode_key(i), i + 1, b"v" * vlen) for i in range(n)]


@pytest.fixture(scope="module")
def sorted_entries():
    return _entries()


@pytest.fixture(scope="module")
def shuffled_entries(sorted_entries):
    es = list(sorted_entries)
    random.Random(5).shuffle(es)
    return es


def test_memtable_insert_rate(benchmark, shuffled_entries):
    def insert_all():
        mt = DictMemTable()
        for e in shuffled_entries:
            mt.add(e)
        return mt

    mt = benchmark(insert_all)
    assert len(mt) == N


def test_memtable_get_rate(benchmark, shuffled_entries):
    mt = DictMemTable()
    for e in shuffled_entries:
        mt.add(e)
    keys = [e[0] for e in shuffled_entries[:500]]

    def get_all():
        hits = 0
        for k in keys:
            if mt.get(k) is not None:
                hits += 1
        return hits

    assert benchmark(get_all) == 500


def test_bloom_probe_rate(benchmark, sorted_entries):
    bf = BloomFilter(N, bits_per_key=10)
    for e in sorted_entries:
        bf.add(e[0])
    keys = [e[0] for e in sorted_entries[:500]] + \
           [encode_key(10**6 + i) for i in range(500)]

    def probe_all():
        return sum(bf.may_contain(k) for k in keys)

    hits = benchmark(probe_all)
    assert hits >= 500  # no false negatives


def test_sstable_point_probe_rate(benchmark, sorted_entries):
    table = SSTable(1, sorted_entries, block_size=4096)
    keys = [e[0] for e in sorted_entries[::4]]

    def probe_all():
        return sum(table.probe(k).entry is not None for k in keys)

    assert benchmark(probe_all) == len(keys)


def test_merging_iterator_rate(benchmark):
    rng = random.Random(7)
    sources = []
    for s in range(8):
        keys = sorted(rng.sample(range(20_000), 1000))
        sources.append([make_entry(encode_key(k), s * 10_000 + i, b"v")
                        for i, k in enumerate(keys)])

    def merge_all():
        return sum(1 for _ in merging_iterator([list(src) for src in sources]))

    count = benchmark(merge_all)
    assert count > 0
