"""Tests for the in-device Dev-LSM."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import ftl_map, make_ftl  # noqa: E402

from repro.device import (  # noqa: E402
    CpuModel,
    DevLsm,
    DevLsmConfig,
    KvDevice,
    MiB,
    NandArray,
    NandGeometry,
    PcieLink,
    devlsm,
)
from repro.lsm.sstable import columns_bytes, iter_rows  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import (  # noqa: E402
    KIND_DELETE, encode_key, entry_size, make_entry)


def make_devlsm(env, memtable_bytes=4096, **cfg_kw):
    g = NandGeometry(channels=1, ways=1, blocks_per_way=64, pages_per_block=16,
                     page_size=4096)
    ftl = make_ftl(g, split_fraction=0.5)
    nand = NandArray(env, g, peak_bandwidth=100 * MiB)
    arm = CpuModel(env, cores=1, name="arm")
    cfg = DevLsmConfig(memtable_bytes=memtable_bytes, **cfg_kw)
    return DevLsm(env, ftl, nand, arm, _kv_lpns(ftl), config=cfg)


def _kv_lpns(ftl):
    kv = ftl.region("kv")
    return range(kv.lpn_start, kv.lpn_start + kv.lpn_count)


def run(env, gen):
    """Drive one generator to completion; return its value."""
    return env.run(until=env.process(gen))


def put(env, dl, k, seq, v=b"v"):
    run(env, dl.put(make_entry(encode_key(k), seq, v)))


def kv_device(env, dl):
    """The NVMe-KV endpoint over ``dl``: its SEEK/NEXT read the iterator."""
    return KvDevice(env, dl, PcieLink(env, bandwidth=100 * MiB),
                    CpuModel(env, cores=1, name="host"))


def seek_to_end(env, kv, key):
    """Open an iterator, SEEK to ``key`` and NEXT until it returns None;
    every entry the commands returned, in order."""
    snapshot = run(env, kv.create_iterator())
    rows, entry = run(env, kv.iter_seek(snapshot, key))
    out = []
    while entry is not None:
        out.append(entry)
        entry = run(env, kv.iter_next(rows))
    return out


def test_put_get_memtable_hit():
    env = Environment()
    dl = make_devlsm(env)
    put(env, dl, 1, 10, b"one")
    e = run(env, dl.get(encode_key(1)))
    assert e[3] == b"one"
    assert e[1] == 10


def test_get_missing_returns_none():
    env = Environment()
    dl = make_devlsm(env)
    assert run(env, dl.get(encode_key(42))) is None


def test_flush_on_memtable_full_creates_run():
    env = Environment()
    dl = make_devlsm(env, memtable_bytes=256)
    for i in range(30):
        put(env, dl, i, i, b"x" * 32)
    assert dl.flush_count >= 1
    assert len(dl.runs) >= 1
    # every key still readable after flush
    for i in range(30):
        e = run(env, dl.get(encode_key(i)))
        assert e is not None


def test_newest_wins_across_runs():
    env = Environment()
    dl = make_devlsm(env, memtable_bytes=128)
    for seq, val in [(1, b"old"), (2, b"mid"), (3, b"new")]:
        put(env, dl, 7, seq, val + b"-" * 60)  # force flushes between
    e = run(env, dl.get(encode_key(7)))
    assert e[3].startswith(b"new")


def test_tombstones_survive():
    env = Environment()
    dl = make_devlsm(env)
    put(env, dl, 5, 1, b"v")
    run(env, dl.put(make_entry(encode_key(5), 2, None, kind=KIND_DELETE)))
    e = run(env, dl.get(encode_key(5)))
    assert e[2] == KIND_DELETE


def test_key_range_and_empty():
    env = Environment()
    dl = make_devlsm(env, memtable_bytes=128)
    assert dl.is_empty
    for k in (10, 3, 99):
        put(env, dl, k, k, b"x" * 50)
    assert not dl.is_empty
    keys = [e[0] for e in seek_to_end(env, kv_device(env, dl), b"")]
    assert (keys[0], keys[-1]) == (encode_key(3), encode_key(99))


def test_iterator_sorted_and_deduped():
    env = Environment()
    dl = make_devlsm(env, memtable_bytes=200)
    for i in [5, 3, 9, 3, 7, 5]:
        put(env, dl, i, i + 100, b"x" * 40)  # later seq overwrite
    keys = [e[0] for e in seek_to_end(env, kv_device(env, dl), b"")]
    assert keys == sorted(set(keys))
    assert keys == [encode_key(k) for k in (3, 5, 7, 9)]


def test_iterator_seek():
    env = Environment()
    dl = make_devlsm(env)
    for k in (2, 4, 6):
        put(env, dl, k, k, b"v")
    kv = kv_device(env, dl)
    snapshot = run(env, kv.create_iterator())
    _rows, entry = run(env, kv.iter_seek(snapshot, encode_key(3)))
    assert entry[0] == encode_key(4)
    rows, entry = run(env, kv.iter_seek(snapshot, encode_key(7)))
    assert entry is None
    assert run(env, kv.iter_next(rows)) is None


def test_seek_on_an_empty_devlsm_returns_none():
    """An empty Dev-LSM's iterator is empty columns: SEEK and NEXT return
    None.  A reset landing during the open command's PCIe transfer leaves
    the same snapshot."""
    env = Environment()
    dl = make_devlsm(env)
    kv = kv_device(env, dl)
    assert seek_to_end(env, kv, b"") == []
    put(env, dl, 1, 1)
    opened = env.process(kv.create_iterator())

    def reset_during_transfer():
        dl.reset()
        yield env.timeout(0)

    env.process(reset_during_transfer())
    snapshot = env.run(until=opened)
    assert snapshot[0] == []
    rows, entry = run(env, kv.iter_seek(snapshot, b""))
    assert entry is None and run(env, kv.iter_next(rows)) is None


def test_bulk_scan_returns_all_and_charges_pcie():
    env = Environment()
    dl = make_devlsm(env, memtable_bytes=300)
    pcie = PcieLink(env, bandwidth=100 * MiB)
    for i in range(40):
        put(env, dl, i, i, b"y" * 30)
    entries = list(iter_rows(run(env, dl.bulk_scan(pcie))))
    assert len(entries) == 40
    assert [e[0] for e in entries] == sorted(e[0] for e in entries)
    assert pcie.ledger.total_bytes > 0


def test_bulk_scan_empty():
    env = Environment()
    dl = make_devlsm(env)
    pcie = PcieLink(env)
    assert list(iter_rows(run(env, dl.bulk_scan(pcie)))) == []
    assert pcie.ledger.total_bytes == 0


def test_bulk_scan_chunks_at_dma_limit(monkeypatch):
    monkeypatch.setattr(devlsm, "DMA_CHUNK_BYTES", 1024)
    env = Environment()
    dl = make_devlsm(env, memtable_bytes=1 * MiB)
    pcie = PcieLink(env, bandwidth=100 * MiB)
    for i in range(100):
        put(env, dl, i, i, b"z" * 100)
    run(env, dl.bulk_scan(pcie))
    # >10 KB of payload with 1 KB chunks: many transfers, bytes conserved.
    total = sum(108 + 8 + 4 - 4 for _ in range(100))  # approximate lower bound
    assert pcie.ledger.total_bytes >= 100 * 100


def test_reset_clears_everything():
    env = Environment()
    dl = make_devlsm(env, memtable_bytes=128)
    for i in range(20):
        put(env, dl, i, i, b"w" * 40)
    assert not dl.is_empty
    dl.reset()
    assert dl.is_empty
    assert dl.entry_count == 0
    assert dl.runs == []
    assert run(env, dl.get(encode_key(1))) is None


def _full_range_reset(ftl):
    """The walk ``reset`` used to do: probe every LPN of the KV region."""
    region = ftl.region("kv")
    for lpn in range(region.lpn_start, region.lpn_start + region.lpn_count):
        if ftl.is_mapped(lpn):
            ftl.trim(range(lpn, lpn + 1))


def _ftl_maps(ftl):
    mapping = ftl_map(ftl)
    assert len(set(mapping.values())) == len(mapping)   # no PPN twice
    return mapping, ftl.state_digest()


@pytest.mark.parametrize("rounds, puts", [(1, 40), (3, 25), (2, 400)])
def test_reset_leaves_ftl_as_the_full_range_walk_does(rounds, puts):
    """``reset`` trims only the LPNs it handed out; the FTL must end up
    exactly as after probing the whole region — also once ``_alloc_lpns``
    has wrapped past the region's end (the 400-put round: 16-page KV
    blocks, ~110 KV LPNs, one page per flushed run)."""
    def build():
        env = Environment()
        g = NandGeometry(channels=1, ways=1, blocks_per_way=16,
                         pages_per_block=16, page_size=4096)
        ftl = make_ftl(g, split_fraction=0.5)
        dl = DevLsm(env, ftl, NandArray(env, g, peak_bandwidth=100 * MiB),
                    CpuModel(env, cores=1, name="arm"), _kv_lpns(ftl),
                    config=DevLsmConfig(memtable_bytes=128))
        return env, dl

    (env_a, a), (env_b, b) = build(), build()
    kv_lpns = a.ftl.region("kv").lpn_count
    # Block-region pages, mapped as runs (two blocks and a bit, then an
    # overwrite from mid-block): never trimmed, whatever mapped them.
    for ftl in (a.ftl, b.ftl):
        assert ftl.write_batch(range(0, 37)) == list(range(0, 37))
        ftl.write_batch(range(3, 25))
    for r in range(rounds):
        for i in range(puts):
            put(env_a, a, i, r * puts + i, b"w" * 40)
            put(env_b, b, i, r * puts + i, b"w" * 40)
        assert _ftl_maps(a.ftl) == _ftl_maps(b.ftl)
        wrapped = a._lpns_allocated > kv_lpns
        assert wrapped == (puts == 400)
        a.reset()
        _full_range_reset(b.ftl)
        b.reset()                        # nothing left for it to trim
        assert _ftl_maps(a.ftl) == _ftl_maps(b.ftl)
        assert a.ftl.mapped_pages("kv") == 0 and a.ftl.is_mapped(3)
        assert a._lpns_allocated == 0    # next run starts at the region start


def test_device_compaction_merges_runs(monkeypatch):
    monkeypatch.setattr(devlsm, "COMPACTION_TRIGGER_RUNS", 3)
    env = Environment()
    tracer = Tracer().install(env)
    dl = make_devlsm(env, memtable_bytes=128, compaction_enabled=True)
    for i in range(60):
        put(env, dl, i % 10, i, b"c" * 40)
    assert dl.compaction_count >= 1
    # Each compaction closed its own span (it used to stay open until the
    # end-of-run sweep, covering everything that ran after it).
    compact = [sp for sp in tracer.spans("devlsm")
               if sp.name == "devlsm.compact"]
    assert len(compact) == dl.compaction_count and not tracer._open
    # After compaction correctness holds.
    for k in range(10):
        e = run(env, dl.get(encode_key(k)))
        assert e is not None


def test_get_from_run_charges_nand_read():
    env = Environment()
    dl = make_devlsm(env, memtable_bytes=128)
    for i in range(10):
        put(env, dl, i, i, b"r" * 40)
    assert dl.runs  # flushed at least once
    nand_before = dl.nand.total_bytes
    key = dl.runs[0].smallest
    run(env, dl.get(key))
    assert dl.nand.total_bytes > nand_before


def old_merged_entries(dl, include_memtable=True):
    """The per-entry dict merge ``_merged_entries`` used before it became
    the LSM's batch merge: oldest run first, a strictly newer seq
    overwrites, then one sort by (key, -seq)."""
    best = {}
    for r in reversed(dl.runs):
        for e in r.entries:
            cur = best.get(e[0])
            if cur is None or e[1] > cur[1]:
                best[e[0]] = e
    if include_memtable:
        for key, e in dl._memtable.items():
            cur = best.get(key)
            if cur is None or e[1] > cur[1]:
                best[key] = e
    return sorted(best.values(), key=lambda e: (e[0], -e[1]))


# At least 30 writes into a 120-byte memtable: nearly every example
# flushes two runs or more (with 300 bytes and no minimum, none did).
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40),
                          st.one_of(st.none(), st.binary(max_size=60))),
                min_size=30, max_size=150),
       st.integers(0, 41))
def test_scan_and_compaction_merge_equal_the_dict_merge(ops, seek_from):
    """bulk_scan and _compact return what the old dict merge returned,
    entry for entry, over runs that overlap and a memtable that shadows
    them (tombstones included); GET of every key and a SEEK from
    ``seek_from`` with NEXTs to the end read what a dict of the writes
    holds, before and after the compaction."""
    env = Environment()
    dl = make_devlsm(env, memtable_bytes=120)
    kv = kv_device(env, dl)
    model = {}
    for seq, (k, v) in enumerate(ops, start=1):
        entry = make_entry(encode_key(k), seq, v)
        run(env, dl.put(entry))
        model[entry[0]] = entry
    for r in dl.runs:
        assert [e[0] for e in r.entries] == sorted({e[0] for e in r.entries})
    expect_runs_only = old_merged_entries(dl, include_memtable=False)
    expect = old_merged_entries(dl)
    assert expect == sorted(model.values())

    def check_reads():
        for k in range(42):
            key = encode_key(k)
            assert run(env, dl.get(key)) == model.get(key), k
        start = encode_key(seek_from)
        assert seek_to_end(env, kv, start) == [e for e in expect
                                               if e[0] >= start]

    merged = run(env, dl.bulk_scan(PcieLink(env, bandwidth=100 * MiB)))
    scanned = list(iter_rows(merged))
    assert scanned == expect
    # The byte total the DMA and ARM charges use is the entries' own.
    assert columns_bytes(merged) == sum(map(entry_size, expect))
    check_reads()
    if dl.runs:
        run(env, dl._compact())
        assert len(dl.runs) == 1 and dl.runs[0].entries == expect_runs_only
        assert dl.runs[0].data_bytes == sum(map(entry_size,
                                                expect_runs_only))
        assert list(iter_rows(run(env, dl.bulk_scan(PcieLink(env))))) \
            == expect
        check_reads()
