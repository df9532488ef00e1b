"""Tests for the disaggregated FTL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import Ftl, FtlError, NandGeometry


def tiny_geometry(**kw):
    defaults = dict(channels=1, ways=1, blocks_per_way=8, pages_per_block=4,
                    page_size=4096)
    defaults.update(kw)
    return NandGeometry(**defaults)


def test_regions_partition_logical_space():
    ftl = Ftl(tiny_geometry(), split_fraction=0.5)
    blk = ftl.region("block")
    kv = ftl.region("kv")
    assert blk.lpn_start == 0
    assert kv.lpn_start == blk.lpn_count == ftl.disaggregation_point
    assert blk.lpn_count + kv.lpn_count == ftl.total_logical_pages
    # logical space excludes over-provisioned blocks
    assert ftl.total_logical_pages < ftl.geometry.total_pages


def test_write_read_roundtrip_with_payload():
    ftl = Ftl(tiny_geometry())
    ftl.write(0, data=b"hello")
    assert ftl.read(0) == b"hello"


def test_overwrite_remaps_and_keeps_latest():
    ftl = Ftl(tiny_geometry())
    p1 = ftl.write(3, data=b"v1")
    p2 = ftl.write(3, data=b"v2")
    assert p1 != p2
    assert ftl.read(3) == b"v2"


def test_read_unmapped_raises():
    ftl = Ftl(tiny_geometry())
    with pytest.raises(FtlError):
        ftl.read(1)


def test_out_of_range_lpn_raises():
    ftl = Ftl(tiny_geometry())
    with pytest.raises(FtlError):
        ftl.write(10**9)


def test_trim_unmaps():
    ftl = Ftl(tiny_geometry())
    ftl.write(5, data=b"x")
    ftl.trim(5)
    assert not ftl.is_mapped(5)
    ftl.trim(5)  # idempotent


def test_regions_use_disjoint_physical_blocks():
    g = tiny_geometry()
    ftl = Ftl(g, split_fraction=0.5)
    kv_start = ftl.region("kv").lpn_start
    ppns_block = [ftl.write(i) for i in range(4)]
    ppns_kv = [ftl.write(kv_start + i) for i in range(4)]
    blocks_block = {p // g.pages_per_block for p in ppns_block}
    blocks_kv = {p // g.pages_per_block for p in ppns_kv}
    assert blocks_block.isdisjoint(blocks_kv)


def test_mapped_and_free_page_accounting():
    ftl = Ftl(tiny_geometry(), split_fraction=0.5)
    before = ftl.free_pages("block")
    ftl.write(0)
    ftl.write(1)
    assert ftl.mapped_pages("block") == 2
    assert ftl.free_pages("block") == before - 2


def test_gc_reclaims_overwritten_pages():
    # 1 channel/way, 8 blocks x 4 pages; split 0.5 -> 4 physical blocks for
    # the block region (minus OP). Overwrite one LPN repeatedly to force GC.
    ftl = Ftl(tiny_geometry(), split_fraction=0.5, op_fraction=0.25)
    writes = 0
    for _ in range(64):
        ftl.write(0, data=b"latest%d" % writes)
        writes += 1
    assert ftl.read(0) == b"latest%d" % (writes - 1)
    stats = ftl.gc_stats["block"]
    assert stats.invocations > 0
    assert stats.blocks_erased > 0


def test_gc_preserves_all_live_data():
    ftl = Ftl(tiny_geometry(), split_fraction=0.5, op_fraction=0.25)
    live = {}
    import random
    rng = random.Random(7)
    lpns = list(range(6))
    for i in range(200):
        lpn = rng.choice(lpns)
        data = f"{lpn}:{i}".encode()
        ftl.write(lpn, data=data)
        live[lpn] = data
    for lpn, data in live.items():
        assert ftl.read(lpn) == data


def test_full_region_sustains_overwrites_via_gc():
    # Fill every logical page of the kv region, then keep overwriting:
    # over-provisioning + GC must sustain the write stream indefinitely.
    ftl = Ftl(tiny_geometry(), split_fraction=0.5, op_fraction=0.25)
    kv = ftl.region("kv")
    for lpn in range(kv.lpn_start, kv.lpn_start + kv.lpn_count):
        ftl.write(lpn, data=b"init")
    for i in range(300):
        lpn = kv.lpn_start + (i % kv.lpn_count)
        ftl.write(lpn, data=b"gen%d" % i)
    # All logical pages still mapped and readable.
    assert ftl.mapped_pages("kv") == kv.lpn_count
    assert ftl.gc_stats["kv"].invocations > 0


def test_unknown_region_raises():
    ftl = Ftl(tiny_geometry())
    with pytest.raises(FtlError):
        ftl.region("nope")


def test_invalid_fractions():
    with pytest.raises(ValueError):
        Ftl(tiny_geometry(), split_fraction=0.0)
    with pytest.raises(ValueError):
        Ftl(tiny_geometry(), split_fraction=1.0)
    with pytest.raises(ValueError):
        Ftl(tiny_geometry(), op_fraction=0.9)


# -- GC while overwriting ------------------------------------------------------
def _check_ftl_invariants(ftl, live):
    """Maps are inverse bijections and every live LPN reads its latest."""
    assert {ppn: lpn for lpn, ppn in ftl._l2p.items()} == ftl._p2l
    assert set(ftl._l2p) == set(live)
    assert set(ftl._data) <= set(ftl._p2l)
    for lpn, data in live.items():
        assert ftl.read(lpn) == data
    for name, region in ftl.regions.items():
        assert ftl.mapped_pages(name) == sum(map(region.contains, live))


@pytest.mark.parametrize("seed", range(6))
def test_overwrite_whose_allocation_gcs_the_overwritten_page(seed):
    """``write`` used to look the old PPN up *before* allocating: when the
    allocation's GC relocated that very page, the relocated copy stayed in
    ``_p2l`` and a later GC wrote its stale PPN back over ``_l2p[lpn]``."""
    import random
    ftl = Ftl(tiny_geometry(blocks_per_way=16), split_fraction=0.5,
              op_fraction=0.2)
    rng = random.Random(seed)
    lpns = range(ftl.total_logical_pages)     # both regions
    live = {}
    for i in range(600):
        lpn = rng.choice(lpns)
        if rng.random() < 0.1:
            ftl.trim(lpn)
            live.pop(lpn, None)
        else:
            live[lpn] = (lpn, i)
            ftl.write(lpn, data=live[lpn])
        _check_ftl_invariants(ftl, live)
    assert all(s.pages_moved > 0 for s in ftl.gc_stats.values())


# -- write_batch(range) is the per-page loop ---------------------------------
def _ftl_state(ftl):
    # Item lists, not dicts: GC walks ``_p2l`` in insertion order, so the
    # order is part of the state that decides later allocations.
    return (list(ftl._l2p.items()), list(ftl._p2l.items()),
            sorted(ftl._data.items()), ftl.program_counts,
            ftl.last_programmed_block, ftl.gc_stats, ftl.state_digest())


_batch_geometry = dict(blocks_per_way=16, pages_per_block=4)
_batch_lpns = Ftl(tiny_geometry(**_batch_geometry), split_fraction=0.5,
                  op_fraction=0.2).total_logical_pages
_batch_ops = st.lists(
    st.tuples(st.sampled_from(["range", "list", "generator", "payload",
                               "trim"]),
              st.integers(0, _batch_lpns - 1),      # start: any block offset
              st.integers(1, 12)),                  # 1..3x pages_per_block
    min_size=1, max_size=60)


def _drive_twins(ops):
    """Apply ``ops`` to a batched FTL and to a twin fed page by page;
    every returned PPN and all state must agree after every op."""
    def build():
        return Ftl(tiny_geometry(**_batch_geometry), split_fraction=0.5,
                   op_fraction=0.2)

    batched, scalar = build(), build()
    for i, (kind, start, length) in enumerate(ops):
        lpns = range(start, min(start + length, _batch_lpns))
        if kind == "trim":
            for lpn in lpns:
                batched.trim(lpn)
                scalar.trim(lpn)
        elif kind == "payload":
            for lpn in lpns:
                assert (batched.write(lpn, data=(lpn, i))
                        == scalar.write(lpn, data=(lpn, i)))
        else:
            arg = {"range": lpns, "list": list(lpns),
                   "generator": (lpn for lpn in lpns)}[kind]
            assert batched.write_batch(arg) == [scalar.write(lpn)
                                                for lpn in lpns]
        assert _ftl_state(batched) == _ftl_state(scalar)
        assert ({ppn: lpn for lpn, ppn in batched._l2p.items()}
                == batched._p2l)
        assert set(batched._data) <= set(batched._p2l)
    return batched


@settings(max_examples=150, deadline=None)
@given(_batch_ops)
def test_write_batch_equals_the_scalar_loop_on_a_twin(ops):
    """Runs of 1-3 blocks from any offset, over mapped pages, over pages
    that carry payloads, across the disaggregation point, as a range, a
    list or a generator."""
    _drive_twins(ops)


@pytest.mark.parametrize("seed", range(4))
def test_write_batch_equals_the_scalar_loop_through_gc(seed):
    """The same twins driven long enough (52 logical pages, 64 physical)
    that both regions collect and relocate pages mid-batch."""
    import random
    rng = random.Random(seed)
    kinds = ["range"] * 6 + ["list", "generator", "payload", "trim"]
    ftl = _drive_twins([(rng.choice(kinds), rng.randrange(_batch_lpns),
                         rng.randint(1, 12)) for _ in range(250)])
    assert all(s.pages_moved > 0 for s in ftl.gc_stats.values())


def test_write_batch_crosses_blocks_regions_and_gc():
    """The cases the property test must reach, pinned one by one."""
    ftl = Ftl(tiny_geometry(**_batch_geometry), split_fraction=0.5,
              op_fraction=0.2)
    edge = ftl.disaggregation_point
    # 2 pages, then a run that straddles two block boundaries
    assert ftl.write_batch(range(0, 2)) == [0, 1]
    assert ftl.write_batch(range(2, 11)) == list(range(2, 11))
    assert ftl.program_counts == {0: 4, 1: 4, 2: 3}
    # a payload page loses its data when a batch overwrites it
    ppn = ftl.write(20, data=b"old")
    ftl.write_batch(range(19, 22))
    assert ftl.read(20) is None and ppn not in ftl._p2l
    assert ppn not in ftl._data
    # across the disaggregation point: each side lands in its own pool
    ppns = ftl.write_batch(range(edge - 2, edge + 2))
    kv_first = ftl.geometry.pages_per_block * 8     # blocks 8.. are KV's
    assert [p >= kv_first for p in ppns] == [False, False, True, True]
    # past the end of the logical space: the pages before it are mapped
    end = ftl.total_logical_pages
    with pytest.raises(FtlError):
        ftl.write_batch(range(end - 1, end + 1))
    assert ftl.is_mapped(end - 1)
    # an empty range maps nothing, wherever it starts
    assert ftl.write_batch(range(10**9, 10**9)) == []
    # rewriting the whole block region again and again runs into GC
    for _ in range(6):
        ftl.write_batch(range(0, edge))
    assert ftl.gc_stats["block"].blocks_erased > 0
    assert ftl.mapped_pages("block") == edge
