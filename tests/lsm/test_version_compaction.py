"""Tests for version management, compaction picking, and merging."""

import pytest

from repro.device import KiB
from repro.lsm import (
    CompactionPicker,
    FileMetadata,
    LsmOptions,
    SSTable,
    Version,
    VersionEdit,
    VersionSet,
    merge_for_compaction,
    split_into_files,
)
from repro.types import KIND_DELETE, encode_key, make_entry


def opts(**kw):
    base = dict(
        write_buffer_size=64 * KiB,
        max_bytes_for_level_base=256 * KiB,
        target_file_size_base=64 * KiB,
        soft_pending_compaction_bytes_limit=1024 * KiB,
        hard_pending_compaction_bytes_limit=4096 * KiB,
    )
    base.update(kw)
    return LsmOptions(**base)


def sst(number, lo, hi, seq_base=0, vlen=64, step=1):
    entries = [make_entry(encode_key(k), seq_base + k + 1, b"v" * vlen)
               for k in range(lo, hi + 1, step)]
    return SSTable(number, entries, block_size=4 * KiB)


def meta(number, level, lo, hi, **kw):
    return FileMetadata(number=number, level=level, table=sst(number, lo, hi, **kw))


class TestVersion:
    def test_apply_edit_adds_and_removes(self):
        vs = VersionSet(opts())
        m1 = meta(1, 0, 0, 10)
        vs.apply(VersionEdit(added=[m1]))
        assert vs.current.l0_count == 1
        vs.apply(VersionEdit(removed=[(0, 1)]))
        assert vs.current.l0_count == 0

    def test_l1_sorted_after_apply(self):
        vs = VersionSet(opts())
        m_b = meta(2, 1, 50, 60)
        m_a = meta(1, 1, 0, 10)
        vs.apply(VersionEdit(added=[m_b, m_a]))
        files = vs.current.level_files(1)
        assert [f.number for f in files] == [1, 2]

    def test_l1_overlap_rejected(self):
        vs = VersionSet(opts())
        vs.apply(VersionEdit(added=[meta(1, 1, 0, 10)]))
        with pytest.raises(AssertionError):
            vs.apply(VersionEdit(added=[meta(2, 1, 5, 15)]))

    def test_l0_overlap_allowed(self):
        vs = VersionSet(opts())
        vs.apply(VersionEdit(added=[meta(1, 0, 0, 10), meta(2, 0, 5, 15)]))
        assert vs.current.l0_count == 2

    def test_files_for_key_order(self):
        vs = VersionSet(opts())
        vs.apply(VersionEdit(added=[
            meta(1, 0, 0, 10), meta(3, 0, 5, 15),   # L0, newest = #3
            meta(2, 1, 0, 20),                       # L1
        ]))
        hits = [f.number for f in vs.current.files_for_key(encode_key(7))]
        assert hits == [3, 1, 2]  # L0 newest-first, then L1

    def test_files_for_key_skips_nonoverlapping(self):
        vs = VersionSet(opts())
        vs.apply(VersionEdit(added=[meta(1, 1, 0, 10), meta(2, 1, 20, 30)]))
        hits = [f.number for f in vs.current.files_for_key(encode_key(25))]
        assert hits == [2]
        assert list(vs.current.files_for_key(encode_key(15))) == []

    def test_compaction_scores(self):
        o = opts(level0_file_num_compaction_trigger=4)
        vs = VersionSet(o)
        for i in range(4):
            vs.apply(VersionEdit(added=[meta(i + 1, 0, i * 100, i * 100 + 5)]))
        assert vs.current.compaction_score(o, 0) == pytest.approx(1.0)
        level, score = vs.current.best_compaction_level(o)
        assert level == 0

    def test_pending_compaction_bytes(self):
        o = opts(level0_file_num_compaction_trigger=2,
                 max_bytes_for_level_base=1)  # tiny: upper levels = excess
        vs = VersionSet(o)
        assert vs.current.pending_compaction_bytes(o) == 0
        vs.apply(VersionEdit(added=[meta(1, 0, 0, 50), meta(2, 0, 60, 99)]))
        debt_l0 = vs.current.pending_compaction_bytes(o)
        assert debt_l0 > 0
        # With dynamic level sizing the bottommost level is never debt,
        # but an oversized level *above* the bottom is.
        vs.apply(VersionEdit(added=[meta(3, 1, 100, 200),
                                    meta(4, 2, 300, 310)]))
        assert vs.current.pending_compaction_bytes(o) > debt_l0

    def test_dynamic_level_targets(self):
        o = opts(max_bytes_for_level_base=4 * KiB,
                 max_bytes_for_level_multiplier=4)
        vs = VersionSet(o)
        # Bottom at L3: its target is its own size; L1/L2 derive upward.
        vs.apply(VersionEdit(added=[meta(1, 3, 0, 600, vlen=256)]))
        v = vs.current
        targets = v.level_targets(o)
        assert targets[3] == pytest.approx(max(v.level_bytes(3), 4 * KiB))
        assert targets[2] == pytest.approx(max(targets[3] / 4, 1 * KiB))
        assert targets[1] == pytest.approx(max(targets[2] / 4, 1 * KiB))
        # Bottom level itself never scores as needing compaction.
        assert v.compaction_score(o, 3) <= 1.0

    def test_overlapping_files_query(self):
        vs = VersionSet(opts())
        vs.apply(VersionEdit(added=[meta(1, 1, 0, 10), meta(2, 1, 20, 30)]))
        v = vs.current
        got = v.overlapping_files(1, encode_key(5), encode_key(25))
        assert [f.number for f in got] == [1, 2]
        got = v.overlapping_files(1, encode_key(11), encode_key(19))
        assert got == []


class TestPicker:
    def test_picks_l0_when_triggered(self):
        o = opts(level0_file_num_compaction_trigger=2)
        vs = VersionSet(o)
        vs.apply(VersionEdit(added=[meta(1, 0, 0, 10), meta(2, 0, 5, 15),
                                    meta(3, 1, 0, 8)]))
        job = CompactionPicker(o).pick(vs.current)
        assert job is not None and job.is_l0
        assert {f.number for f in job.inputs_low} == {1, 2}
        assert [f.number for f in job.inputs_high] == [3]
        assert job.output_level == 1

    def test_no_pick_below_trigger(self):
        o = opts(level0_file_num_compaction_trigger=4)
        vs = VersionSet(o)
        vs.apply(VersionEdit(added=[meta(1, 0, 0, 10)]))
        assert CompactionPicker(o).pick(vs.current) is None

    def test_l0_serialized_while_busy(self):
        o = opts(level0_file_num_compaction_trigger=1)
        vs = VersionSet(o)
        m1 = meta(1, 0, 0, 10)
        vs.apply(VersionEdit(added=[m1]))
        m1.being_compacted = True
        assert CompactionPicker(o).pick(vs.current) is None

    def test_picks_oversized_l1(self):
        o = opts(max_bytes_for_level_base=4 * KiB)
        vs = VersionSet(o)
        vs.apply(VersionEdit(added=[meta(1, 1, 0, 100), meta(2, 2, 0, 50)]))
        job = CompactionPicker(o).pick(vs.current)
        assert job is not None
        assert job.level == 1 and job.output_level == 2
        assert [f.number for f in job.inputs_low] == [1]
        assert [f.number for f in job.inputs_high] == [2]

    def test_round_robin_cursor_advances(self):
        o = opts(max_bytes_for_level_base=1)
        vs = VersionSet(o)
        vs.apply(VersionEdit(added=[meta(1, 1, 0, 10), meta(2, 1, 20, 30)]))
        picker = CompactionPicker(o)
        j1 = picker.pick(vs.current)
        assert [f.number for f in j1.inputs_low] == [1]
        # without marking busy, the cursor moves to the next file
        j2 = picker.pick(vs.current)
        assert [f.number for f in j2.inputs_low] == [2]


class TestMergeAndSplit:
    def test_merge_newest_wins(self):
        o = opts()
        new = meta(2, 0, 0, 10, seq_base=1000)
        old = meta(1, 1, 0, 10, seq_base=0)
        from repro.lsm import CompactionJob
        job = CompactionJob(level=0, output_level=1,
                            inputs_low=[new], inputs_high=[old])
        merged = merge_for_compaction(job, num_levels=7)
        assert len(merged) == 11
        assert all(e[1] >= 1000 for e in merged)

    def test_tombstones_kept_above_bottom(self):
        from repro.lsm import CompactionJob
        t = SSTable(1, [make_entry(encode_key(1), 5, None, kind=KIND_DELETE)],
                    block_size=4 * KiB)
        m = FileMetadata(number=1, level=0, table=t)
        job = CompactionJob(level=0, output_level=1, inputs_low=[m])
        merged = merge_for_compaction(job, num_levels=7)
        assert len(merged) == 1 and merged[0][2] == KIND_DELETE

    def test_tombstones_dropped_at_bottom(self):
        from repro.lsm import CompactionJob
        t = SSTable(1, [make_entry(encode_key(1), 5, None, kind=KIND_DELETE),
                        make_entry(encode_key(2), 6, b"live")],
                    block_size=4 * KiB)
        m = FileMetadata(number=1, level=5, table=t)
        job = CompactionJob(level=5, output_level=6, inputs_low=[m])
        merged = merge_for_compaction(job, num_levels=7)
        assert [e[0] for e in merged] == [encode_key(2)]

    def test_split_into_files_respects_target(self):
        entries = [make_entry(encode_key(i), i, b"v" * 100) for i in range(100)]
        from repro.types import entry_size
        groups = split_into_files(entries, target_bytes=1000)
        assert [e for g, _sizes in groups for e in g] == entries
        for g, sizes in groups:
            assert sizes == [entry_size(e) for e in g]
        for _g, sizes in groups[:-1]:
            assert sum(sizes) <= 1000 + 120

    def test_split_empty(self):
        assert split_into_files([], 100) == []
        with pytest.raises(ValueError):
            split_into_files([], 0)
