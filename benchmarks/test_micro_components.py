"""Microbenchmarks of the core data structures (real pytest-benchmark
multi-round timing — these are Python wall-clock numbers, not simulated).

Covers the memtable the host LSM builds (a dict with a lazily sorted view),
the hot-path structures every simulated op touches (bloom probe, SST
probe, merging iterator) and the host point lookup that walks them.
"""

import random

import pytest

from repro.device import CpuModel
from repro.faults.kit import small_options, small_ssd
from repro.lsm import (BloomFilter, DbImpl, DictMemTable, FileMetadata,
                       SSTable, VersionEdit, merging_iterator)
from repro.sim import Environment
from repro.types import ValueRef, encode_key, make_entry

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


# A lookup's candidates: 20 overlapping L0 files (the slowdown trigger's
# worth) and one file in each of L1-L3.
LOOKUP_LEVELS = [0] * 20 + [1, 2, 3]
LOOKUPS = 400


def _lookup_db(table_keys):
    """A DB whose every lookup in its key range has all 23 tables as
    candidates: table ``i`` holds every 23rd even key from ``2 * i``,
    ``table_keys`` of them, and its filter is filled."""
    env = Environment()
    cpu = CpuModel(env, cores=8, name="host")
    db = DbImpl(env, small_options(level0_file_num_compaction_trigger=100,
                                   level0_slowdown_writes_trigger=100,
                                   level0_stop_writes_trigger=100),
                small_ssd(env, cpu).block, cpu)
    stride = 2 * len(LOOKUP_LEVELS)
    for i, level in enumerate(LOOKUP_LEVELS):
        number = db.versions.new_file_number()
        table = SSTable(number, [
            make_entry(encode_key(k), number, ValueRef(k, 16))
            for k in range(2 * i, stride * table_keys, stride)])
        env.run(until=env.process(db.fs.append(
            db.fs.create(db._sst_name(number)), table.file_bytes)))
        db.versions.apply(VersionEdit(added=[
            FileMetadata(number=number, level=level, table=table)]))
        table.bloom                         # filled outside the timing
    return env, db


@pytest.fixture(scope="module", params=[256, 16_384],
                ids=["256-key-tables", "16384-key-tables"])
def lookup_db(request):
    return request.param, *_lookup_db(request.param)


@pytest.mark.parametrize("found", [False, True], ids=["miss", "hit"])
def test_db_point_lookup_rate(benchmark, lookup_db, found):
    """Point lookups that reach every table: misses (odd keys) ask all 23
    filters; hits find keys of the L3 table, the last candidate."""
    table_keys, env, db = lookup_db
    stride = 2 * len(LOOKUP_LEVELS)
    rng = random.Random(table_keys)
    rows = [rng.randrange(table_keys) for _ in range(LOOKUPS)]
    last = 2 * (len(LOOKUP_LEVELS) - 1)
    keys = [encode_key(stride * r + (last if found else 1)) for r in rows]

    def lookups():
        def walk():
            hits = 0
            for key in keys:
                hits += (yield from db.get(key)) is not None
            return hits
        return env.run(until=env.process(walk()))

    assert benchmark(lookups) == (LOOKUPS if found else 0)
