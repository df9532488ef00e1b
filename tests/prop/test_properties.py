"""Property-based tests (hypothesis) for core invariants."""

import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from memtable_reference import SkipListMemTable  # noqa: E402
from repro.lsm import (
    BloomFilter,
    DictMemTable,
    SSTable,
    decode_block,
    decode_varint,
    encode_block,
    encode_varint,
    merging_iterator,
)
from repro.metrics import LatencyHistogram
from repro.types import KIND_DELETE, encode_key, entry_size, make_entry

keys = st.integers(min_value=0, max_value=500)
values = st.binary(min_size=0, max_size=64)


# ---------------------------------------------------------------- codec
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_varint_roundtrip(n):
    val, pos = decode_varint(encode_varint(n))
    assert val == n


@given(st.lists(st.tuples(keys, values), min_size=0, max_size=40))
def test_block_codec_roundtrip(pairs):
    seen = {}
    for seq, (k, v) in enumerate(pairs):
        seen[k] = make_entry(encode_key(k), seq + 1, v)
    entries = [seen[k] for k in sorted(seen)]
    assert decode_block(encode_block(entries)) == entries


# ------------------------------------------------------------- memtables
@given(st.lists(st.tuples(keys, values), min_size=0, max_size=120))
def test_memtables_agree_with_dict_model(ops):
    d, s = DictMemTable(), SkipListMemTable()
    model = {}
    for seq, (k, v) in enumerate(ops):
        e = make_entry(encode_key(k), seq + 1, v)
        d.add(e)
        s.add(e)
        model[encode_key(k)] = e
    assert d.entries() == s.entries()
    expected = [model[k] for k in sorted(model)]
    assert d.entries() == expected
    assert d.approximate_bytes == sum(entry_size(e) for e in model.values())
    for k in model:
        assert d.get(k) == s.get(k) == model[k]


@given(st.lists(st.tuples(keys, values), min_size=1, max_size=80), keys)
def test_memtable_iter_from_matches_sorted_slice(ops, start):
    mt = SkipListMemTable()
    model = {}
    for seq, (k, v) in enumerate(ops):
        e = make_entry(encode_key(k), seq + 1, v)
        mt.add(e)
        model[encode_key(k)] = e
    start_key = encode_key(start)
    expected = [model[k] for k in sorted(model) if k >= start_key]
    assert list(mt.iter_from(start_key)) == expected


# --------------------------------------------------------------- bloom
@given(st.sets(keys, min_size=1, max_size=100))
def test_bloom_no_false_negatives(key_set):
    bf = BloomFilter(len(key_set), bits_per_key=10)
    encoded = [encode_key(k) for k in key_set]
    bf.add_all(encoded)
    assert all(bf.may_contain(k) for k in encoded)


# --------------------------------------------------------------- sstable
@given(st.dictionaries(keys, values, min_size=1, max_size=60),
       st.integers(min_value=64, max_value=2048))
def test_sstable_probe_total(model, block_size):
    entries = [make_entry(encode_key(k), i + 1, model[k])
               for i, k in enumerate(sorted(model))]
    t = SSTable(1, entries, block_size=block_size)
    # every present key probes to its entry; block accounting is complete
    for e in entries:
        r = t.probe(e[0])
        assert r.entry == e
    assert sum(t.block_bytes(b) for b in range(t.num_blocks)) == t.data_bytes
    # absent keys never return a wrong entry
    for k in range(501, 520):
        assert t.probe(encode_key(k)).entry is None


@given(st.dictionaries(keys, values, min_size=1, max_size=60), keys)
def test_sstable_iter_from_is_sorted_suffix(model, start):
    entries = [make_entry(encode_key(k), i + 1, model[k])
               for i, k in enumerate(sorted(model))]
    t = SSTable(1, entries, block_size=256)
    got = list(t.iter_from(encode_key(start)))
    assert got == [e for e in entries if e[0] >= encode_key(start)]


# ------------------------------------------------------- merging iterator
@given(st.lists(st.lists(st.tuples(keys, values), max_size=30),
                min_size=0, max_size=6))
def test_merging_iterator_equals_dict_model(source_specs):
    seq = 0
    sources = []
    model = {}
    for spec in source_specs:
        per_key = {}
        for k, v in spec:
            seq += 1
            per_key[encode_key(k)] = make_entry(encode_key(k), seq, v)
        src = [per_key[k] for k in sorted(per_key)]
        sources.append(src)
        for k, e in per_key.items():
            cur = model.get(k)
            if cur is None or e[1] > cur[1]:
                model[k] = e
    expected = [model[k] for k in sorted(model)]
    got = list(merging_iterator(sources))
    assert got == expected


@given(st.lists(st.lists(st.tuples(keys, st.one_of(st.none(), values)),
                         max_size=25), min_size=1, max_size=5))
def test_merging_iterator_tombstones_hide_keys(source_specs):
    seq = 0
    sources = []
    model = {}
    for spec in source_specs:
        per_key = {}
        for k, v in spec:
            seq += 1
            kind = KIND_DELETE if v is None else 1
            per_key[encode_key(k)] = make_entry(encode_key(k), seq, v, kind=kind)
        sources.append([per_key[k] for k in sorted(per_key)])
        for k, e in per_key.items():
            cur = model.get(k)
            if cur is None or e[1] > cur[1]:
                model[k] = e
    visible = [e for k, e in sorted(model.items()) if e[2] != KIND_DELETE]
    assert list(merging_iterator(sources)) == visible


# ------------------------------------------------------------ histogram
@given(st.lists(st.floats(min_value=0.01, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=300))
def test_histogram_percentiles_bounded_and_monotone(samples):
    h = LatencyHistogram()
    for v in samples:
        h.record(v)
    assert h.total_count == len(samples)
    ps = [h.percentile(p) for p in (0, 25, 50, 75, 90, 99, 100)]
    assert all(h.min <= p <= h.max for p in ps)
    assert all(b >= a * 0.99 for a, b in zip(ps, ps[1:]))
    assert h.percentile(100) <= max(samples) * 1.05
    assert h.min == min(samples)
    assert h.max == max(samples)


# ----------------------------------------------------------------- ftl
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None,
          max_examples=30)
@given(st.lists(st.tuples(st.integers(0, 30), st.binary(min_size=1, max_size=4)),
                min_size=1, max_size=300))
def test_ftl_never_loses_live_data_and_never_double_maps(writes):
    from helpers import ftl_map, make_ftl
    from repro.device import NandGeometry
    g = NandGeometry(channels=1, ways=1, blocks_per_way=12, pages_per_block=4,
                     page_size=4096)
    ftl = make_ftl(g, split_fraction=0.5, op_fraction=0.2)
    model = {}
    for lpn, data in writes:
        ftl.write(lpn, data=data)
        model[lpn] = data
    # no two logical pages share a physical page
    ppns = list(ftl_map(ftl).values())
    assert len(ppns) == len(set(ppns))
    for lpn, data in model.items():
        assert ftl.read(lpn) == data
