"""Tests for the disaggregated FTL."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ftl_reference import ReferenceFtl  # noqa: E402
from helpers import ftl_map, make_ftl  # noqa: E402

from repro.device import Ftl, FtlError, NandGeometry  # noqa: E402


def tiny_geometry(**kw):
    defaults = dict(channels=1, ways=1, blocks_per_way=8, pages_per_block=4,
                    page_size=4096)
    defaults.update(kw)
    return NandGeometry(**defaults)


def test_regions_partition_logical_space():
    ftl = make_ftl(tiny_geometry(), split_fraction=0.5)
    blk = ftl.region("block")
    kv = ftl.region("kv")
    assert blk.lpn_start == 0
    assert kv.lpn_start == blk.lpn_count == ftl.disaggregation_point
    assert blk.lpn_count + kv.lpn_count == ftl.total_logical_pages
    # logical space excludes over-provisioned blocks
    assert ftl.total_logical_pages < ftl.geometry.total_pages


def test_write_maps_a_fresh_page():
    ftl = Ftl(tiny_geometry())
    ppn = ftl.write(0)
    assert ftl.is_mapped(0)
    assert ftl_map(ftl) == {0: ppn}


def test_overwrite_remaps_and_keeps_latest():
    ftl = Ftl(tiny_geometry())
    p1 = ftl.write(3)
    p2 = ftl.write(3)
    assert p1 != p2
    assert ftl_map(ftl) == {3: p2}


def test_unwritten_page_is_unmapped():
    ftl = Ftl(tiny_geometry())
    assert not ftl.is_mapped(1)
    assert ftl_map(ftl) == {}


def test_out_of_range_lpn_raises():
    ftl = Ftl(tiny_geometry())
    with pytest.raises(FtlError):
        ftl.write(10**9)


def test_trim_unmaps():
    ftl = Ftl(tiny_geometry())
    ftl.write(5)
    ftl.trim(range(5, 6))
    assert not ftl.is_mapped(5)
    ftl.trim(range(5, 6))  # idempotent


def test_trim_splits_runs_and_a_rewrite_joins_them():
    ftl = Ftl(tiny_geometry(blocks_per_way=16))
    ftl.write_batch(range(0, 10))             # one run over three blocks
    assert (ftl._starts, ftl._lens, ftl._ppns) == ([0], [10], [0])
    ftl.trim(range(3, 5))
    assert ftl_map(ftl) == {l: l for l in [0, 1, 2, 5, 6, 7, 8, 9]}
    assert (ftl._starts, ftl._lens, ftl._ppns) == ([0, 5], [3, 5], [0, 5])
    ftl.trim(range(20, 20))                   # empty: nothing moves
    ftl.trim(range(0, 3))
    assert ftl.mapped_pages("block") == 5
    # rewriting the tail remaps it onto fresh pages, as one run again
    assert ftl.write_batch(range(5, 10)) == list(range(10, 15))
    assert (ftl._starts, ftl._lens, ftl._ppns) == ([5], [5], [10])


def test_regions_use_disjoint_physical_blocks():
    g = tiny_geometry()
    ftl = make_ftl(g, split_fraction=0.5)
    kv_start = ftl.region("kv").lpn_start
    ppns_block = [ftl.write(i) for i in range(4)]
    ppns_kv = [ftl.write(kv_start + i) for i in range(4)]
    blocks_block = {p // g.pages_per_block for p in ppns_block}
    blocks_kv = {p // g.pages_per_block for p in ppns_kv}
    assert blocks_block.isdisjoint(blocks_kv)


def test_mapped_and_free_page_accounting():
    ftl = make_ftl(tiny_geometry(), split_fraction=0.5)
    region = ftl.region("block")
    free_blocks = len(region.free_blocks)
    ftl.write(0)
    ftl.write(1)
    assert ftl.mapped_pages("block") == 2
    # both pages went to the one block the first write opened
    assert len(region.free_blocks) == free_blocks - 1
    assert region.next_page_in_block == 2


def test_gc_reclaims_overwritten_pages():
    # 1 channel/way, 8 blocks x 4 pages; split 0.5 -> 4 physical blocks for
    # the block region (minus OP). Overwrite one LPN repeatedly to force GC.
    ftl = make_ftl(tiny_geometry(), split_fraction=0.5, op_fraction=0.25)
    for _ in range(64):
        last = ftl.write(0)
    assert ftl_map(ftl) == {0: last}
    stats = ftl.gc_stats["block"]
    assert stats.invocations > 0
    assert stats.blocks_erased > 0


def test_gc_preserves_all_live_data():
    """Every page written stays mapped through GC, where the page-dict
    reference maps it."""
    ftl, ref = (make_ftl(tiny_geometry(), split_fraction=0.5,
                         op_fraction=0.25, cls=cls)
                for cls in (Ftl, ReferenceFtl))
    import random
    rng = random.Random(7)
    lpns = list(range(6))
    for _ in range(200):
        lpn = rng.choice(lpns)
        assert ftl.write(lpn) == ref.write(lpn)
    assert all(map(ftl.is_mapped, lpns))
    assert ftl_map(ftl) == ref.l2p
    assert ftl.gc_stats["block"].pages_moved > 0


def test_full_region_sustains_overwrites_via_gc():
    # Fill every logical page of the kv region, then keep overwriting:
    # over-provisioning + GC must sustain the write stream indefinitely.
    ftl = make_ftl(tiny_geometry(), split_fraction=0.5, op_fraction=0.25)
    kv = ftl.region("kv")
    for lpn in range(kv.lpn_start, kv.lpn_start + kv.lpn_count):
        ftl.write(lpn)
    for i in range(300):
        ftl.write(kv.lpn_start + (i % kv.lpn_count))
    # All logical pages still mapped.
    assert ftl.mapped_pages("kv") == kv.lpn_count
    assert ftl.gc_stats["kv"].invocations > 0


def test_unknown_region_raises():
    ftl = Ftl(tiny_geometry())
    with pytest.raises(FtlError):
        ftl.region("nope")


# -- GC while overwriting ------------------------------------------------------
def _check_ftl_invariants(ftl, live):
    """One PPN per LPN and no PPN twice (the map has an inverse), and
    exactly the live LPNs mapped."""
    mapping = ftl_map(ftl)
    assert len(set(mapping.values())) == len(mapping)
    assert set(mapping) == set(live)
    assert all(map(ftl.is_mapped, live))
    for name, region in ftl.regions.items():
        assert ftl.mapped_pages(name) == sum(map(region.contains, live))


@pytest.mark.parametrize("seed", range(6))
def test_overwrite_whose_allocation_gcs_the_overwritten_page(seed):
    """``write`` used to look the old PPN up *before* allocating: when the
    allocation's GC relocated that very page, the relocated copy stayed in
    the reverse map and a later GC wrote its stale PPN back over the
    LPN's mapping."""
    import random
    ftl, ref = (make_ftl(tiny_geometry(blocks_per_way=16), split_fraction=0.5,
                         op_fraction=0.2, cls=cls)
                for cls in (Ftl, ReferenceFtl))
    rng = random.Random(seed)
    lpns = range(ftl.total_logical_pages)     # both regions
    live = set()
    for _ in range(600):
        lpn = rng.choice(lpns)
        if rng.random() < 0.1:
            ftl.trim(range(lpn, lpn + 1))
            ref.trim(range(lpn, lpn + 1))
            live.discard(lpn)
        else:
            live.add(lpn)
            assert ftl.write(lpn) == ref.write(lpn)
        _check_ftl_invariants(ftl, live)
        assert ftl_map(ftl) == ref.l2p
    assert all(s.pages_moved > 0 for s in ftl.gc_stats.values())


# -- the run map is the page-dict reference ----------------------------------
def _assert_same(ftl, ref):
    """Every answer and all state of the FTL equal the reference's."""
    mapping = ftl_map(ftl)
    assert mapping == ref.l2p
    assert len(set(mapping.values())) == len(mapping)
    for lpn in range(ftl.total_logical_pages):
        assert ftl.is_mapped(lpn) == ref.is_mapped(lpn)
    for name in ftl.regions:
        assert ftl.mapped_pages(name) == ref.mapped_pages(name)
    assert ftl.state_digest() == ref.state_digest()
    assert ftl.regions == ref.regions
    assert ftl.gc_stats == ref.gc_stats
    assert ftl.program_counts == ref.program_counts
    assert ftl.erase_counts == ref.erase_counts
    assert ftl.retired_blocks == ref.retired_blocks


_batch_geometry = dict(blocks_per_way=16, pages_per_block=4)
_batch_lpns = make_ftl(tiny_geometry(**_batch_geometry), split_fraction=0.5,
                       op_fraction=0.2).total_logical_pages
_batch_ops = st.lists(
    st.tuples(st.sampled_from(["range"] * 3 + ["list", "generator",
                                                "scalar", "trim", "retire"]),
              st.integers(0, _batch_lpns - 1),      # start: any block offset
              st.integers(1, 12)),                  # 1..3x pages_per_block
    min_size=1, max_size=60)


def _drive_twins(ops):
    """Apply ``ops`` to the FTL and to the page-dict reference, whose
    ``write_batch`` is the per-page loop; every returned PPN, every error
    and all state must agree after every op."""
    ftl, ref = (make_ftl(tiny_geometry(**_batch_geometry), split_fraction=0.5,
                         op_fraction=0.2, cls=cls)
                for cls in (Ftl, ReferenceFtl))
    for kind, start, length in ops:
        lpns = range(start, min(start + length, _batch_lpns))
        if kind == "trim":
            ftl.trim(lpns)
            ref.trim(lpns)
        elif kind == "retire":
            block = start % ftl.geometry.total_blocks
            ftl.retire_block(block)
            ref.retire_block(block)
        else:
            outcome = []
            for twin in (ftl, ref):
                try:
                    if kind == "scalar":
                        got = [twin.write(lpn) for lpn in lpns]
                    else:
                        arg = {"range": lpns, "list": list(lpns),
                               "generator": (lpn for lpn in lpns)}[kind]
                        got = twin.write_batch(arg)
                except FtlError as exc:
                    got = str(exc)
                outcome.append(got)
            assert outcome[0] == outcome[1]
        _assert_same(ftl, ref)
    return ftl


@settings(max_examples=150, deadline=None)
@given(_batch_ops)
def test_write_batch_equals_the_scalar_loop_on_a_twin(ops):
    """The reference model as the twin: runs of 1-3 blocks from any offset,
    over mapped pages, over pages mapped one write at a time, across the
    disaggregation point, as a range, a list or a generator, between
    range trims and grown bad blocks."""
    _drive_twins(ops)


@pytest.mark.parametrize("seed", range(4))
def test_write_batch_equals_the_scalar_loop_through_gc(seed):
    """The same twins driven long enough (52 logical pages, 64 physical)
    that both regions collect and relocate pages mid-batch."""
    import random
    rng = random.Random(seed)
    kinds = ["range"] * 6 + ["list", "generator", "scalar", "trim"]
    ftl = _drive_twins([(rng.choice(kinds), rng.randrange(_batch_lpns),
                         rng.randint(1, 12)) for _ in range(250)])
    assert all(s.pages_moved > 0 for s in ftl.gc_stats.values())


def test_write_batch_crosses_blocks_regions_and_gc():
    """The cases the property test must reach, pinned one by one."""
    ftl = make_ftl(tiny_geometry(**_batch_geometry), split_fraction=0.5,
                   op_fraction=0.2)
    edge = ftl.disaggregation_point
    # 2 pages, then a run that straddles two block boundaries
    assert ftl.write_batch(range(0, 2)) == [0, 1]
    assert ftl.write_batch(range(2, 11)) == list(range(2, 11))
    assert ftl.program_counts == {0: 4, 1: 4, 2: 3}
    # a page a batch overwrites is remapped off its old physical page
    ppn = ftl.write(20)
    ftl.write_batch(range(19, 22))
    assert ftl.is_mapped(20) and ppn not in ftl_map(ftl).values()
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
