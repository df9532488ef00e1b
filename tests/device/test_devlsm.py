"""Tests for the in-device Dev-LSM."""

import pytest

from repro.device import (
    CpuModel,
    DevLsm,
    DevLsmConfig,
    Ftl,
    MiB,
    NandArray,
    NandGeometry,
    PcieLink,
)
from repro.obs import Tracer
from repro.sim import Environment
from repro.types import KIND_DELETE, KIND_PUT, encode_key, make_entry


def make_devlsm(env, memtable_bytes=4096, **cfg_kw):
    g = NandGeometry(channels=1, ways=1, blocks_per_way=64, pages_per_block=16,
                     page_size=4096)
    ftl = Ftl(g, split_fraction=0.5)
    nand = NandArray(env, g, peak_bandwidth=100 * MiB)
    arm = CpuModel(env, cores=1, name="arm")
    cfg = DevLsmConfig(memtable_bytes=memtable_bytes, **cfg_kw)
    return DevLsm(env, ftl, nand, arm, config=cfg)


def run(env, gen):
    """Drive one generator to completion; return its value."""
    return env.run(until=env.process(gen))


def put(env, dl, k, seq, v=b"v"):
    run(env, dl.put(make_entry(encode_key(k), seq, v)))


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
    assert dl.key_range() is None
    for k in (10, 3, 99):
        put(env, dl, k, k, b"x" * 50)
    lo, hi = dl.key_range()
    assert lo == encode_key(3)
    assert hi == encode_key(99)


def test_iterator_sorted_and_deduped():
    env = Environment()
    dl = make_devlsm(env, memtable_bytes=200)
    for i in [5, 3, 9, 3, 7, 5]:
        put(env, dl, i, i + 100, b"x" * 40)  # later seq overwrite
    it = run(env, dl.create_iterator())
    keys = []
    it.seek_to_first()
    while it.valid:
        keys.append(it.entry()[0])
        it.next()
    assert keys == sorted(set(keys))
    assert keys == [encode_key(k) for k in (3, 5, 7, 9)]


def test_iterator_seek():
    env = Environment()
    dl = make_devlsm(env)
    for k in (2, 4, 6):
        put(env, dl, k, k, b"v")
    it = run(env, dl.create_iterator())
    it.seek(encode_key(3))
    assert it.entry()[0] == encode_key(4)
    it.seek(encode_key(7))
    assert not it.valid


def test_bulk_scan_returns_all_and_charges_pcie():
    env = Environment()
    dl = make_devlsm(env, memtable_bytes=300)
    pcie = PcieLink(env, bandwidth=100 * MiB)
    for i in range(40):
        put(env, dl, i, i, b"y" * 30)
    entries = run(env, dl.bulk_scan(pcie))
    assert len(entries) == 40
    assert [e[0] for e in entries] == sorted(e[0] for e in entries)
    assert pcie.ledger.total_bytes > 0


def test_bulk_scan_empty():
    env = Environment()
    dl = make_devlsm(env)
    pcie = PcieLink(env)
    assert run(env, dl.bulk_scan(pcie)) == []


def test_bulk_scan_chunks_at_dma_limit():
    env = Environment()
    dl = make_devlsm(env, memtable_bytes=1 * MiB, dma_chunk_bytes=1024)
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
            ftl.trim(lpn)


def _ftl_maps(ftl):
    return dict(ftl._l2p), dict(ftl._p2l), ftl.state_digest()


@pytest.mark.parametrize("rounds, puts", [(1, 40), (3, 25), (2, 400)])
def test_reset_leaves_ftl_as_the_full_range_walk_does(rounds, puts):
    """``reset`` trims only the LPNs it handed out; the FTL must end up
    exactly as after probing the whole region — also once ``_alloc_lpn``
    has wrapped past the region's end (the 400-put round: 16-page KV
    blocks, ~110 KV LPNs, one page per flushed run)."""
    def build():
        env = Environment()
        g = NandGeometry(channels=1, ways=1, blocks_per_way=16,
                         pages_per_block=16, page_size=4096)
        ftl = Ftl(g, split_fraction=0.5)
        dl = DevLsm(env, ftl, NandArray(env, g, peak_bandwidth=100 * MiB),
                    CpuModel(env, cores=1, name="arm"),
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


def test_device_compaction_merges_runs():
    env = Environment()
    tracer = Tracer().install(env)
    dl = make_devlsm(env, memtable_bytes=128, compaction_enabled=True,
                     compaction_trigger_runs=3)
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
    nand_before = dl.nand.ledger.total_bytes
    key = dl.runs[0].smallest
    run(env, dl.get(key))
    assert dl.nand.ledger.total_bytes > nand_before
