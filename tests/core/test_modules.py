"""Unit tests for detector, metadata manager, controller routing, rollback."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db, small_kvaccel  # noqa: E402

from repro.core import (  # noqa: E402
    DetectorConfig,
    MetadataManager,
    RollbackConfig,
    WriteStallDetector,
)
from repro.device import CpuModel  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402


class TestDetector:
    def test_no_pressure_no_stall(self):
        env = Environment()
        db, _, _ = small_db(env)
        det = WriteStallDetector(env, db, DetectorConfig(period=0.01))
        env.run(until=0.1)
        assert det.checks >= 9
        assert det.stall_condition is False
        det.stop()

    def test_detects_l0_pressure(self):
        env = Environment()
        db, _, _ = small_db(env)
        det = WriteStallDetector(env, db, DetectorConfig(period=0.01))
        # Forge L0 pressure directly on the version set.  Files are created
        # in the fs and pinned being_compacted so the background scheduler
        # neither crashes on missing files nor clears the pressure.
        from repro.lsm import FileMetadata, SSTable, VersionEdit
        from repro.types import make_entry
        added = []
        for i in range(db.options.level0_slowdown_writes_trigger):
            t = SSTable(i + 1, [make_entry(encode_key(i * 10), i + 1, b"v")],
                        block_size=4096)
            meta = FileMetadata(number=i + 1, level=0, table=t,
                                being_compacted=True)
            added.append(meta)

        def forge():
            for m in added:
                f = db.fs.create(db._sst_name(m.number))
                yield from db.fs.append(f, m.table.file_bytes)

        run(env, forge())
        db.versions.apply(VersionEdit(added=added))
        env.run(until=0.05)
        assert det.stall_condition is True
        assert det.evaluate() is True
        det.stop()

    def test_charges_cpu_per_check(self):
        env = Environment()
        db, _, cpu = small_db(env)
        det = WriteStallDetector(env, db, DetectorConfig(period=0.01))
        env.run(until=0.1)
        assert cpu.busy_by_tag.get("detector", 0) == pytest.approx(
            det.checks * 1.37e-6)
        det.stop()

    def test_transition_counting(self):
        env = Environment()
        db, _, _ = small_db(env)
        det = WriteStallDetector(env, db, DetectorConfig(period=0.01))

        def pressurize():
            yield env.timeout(0.03)
            # fake a backed-up flush: one immutable + a half-full active
            from repro.types import make_entry
            db.mem.add(make_entry(encode_key(1), 1,
                                  b"x" * db.options.write_buffer_size))
            db.imm.append((db.mem, None))
            yield env.timeout(0.03)
            db.imm.clear()
            yield env.timeout(0.03)

        env.process(pressurize())
        env.run(until=0.1)
        assert det.transitions >= 2
        assert det.stall_condition_time > 0
        det.stop()


class TestMetadata:
    def test_basic_membership(self):
        env = Environment()
        cpu = CpuModel(env, cores=1)
        md = MetadataManager(cpu)
        md.insert(b"a")
        assert md.contains(b"a")
        assert not md.contains(b"b")
        md.settle([b"a"])                  # check, then delete
        assert not md.contains(b"a")
        assert md.inserts == 1 and md.checks == 4 and md.deletes == 1

    def test_remove_absent_is_safe(self):
        env = Environment()
        md = MetadataManager(CpuModel(env, cores=1))
        md.settle([b"ghost"])
        assert len(md) == 0
        md.insert(b"a")
        md.settle([b"ghost"])
        assert len(md) == 1 and md.deletes == 0

    def test_cpu_charges_match_table_vi(self):
        env = Environment()
        cpu = CpuModel(env, cores=1)
        md = MetadataManager(cpu)
        md.insert(b"k")
        md.contains(b"k")
        md.settle([b"k"])                  # check 0.20 + delete 0.28
        assert cpu.busy_by_tag["metadata"] == pytest.approx(1.13e-6)

    def test_clear(self):
        env = Environment()
        md = MetadataManager(CpuModel(env, cores=1))
        for i in range(10):
            md.insert(encode_key(i))
        assert len(md) == 10
        md.clear()
        assert md.is_empty


class TestControllerRouting:
    def test_forced_redirection_via_detector_latch(self):
        env = Environment()
        db, ssd, _ = small_kvaccel(env, rollback="disabled")
        db.detector.stall_condition = True  # force the latch
        run(env, db.put(encode_key(1), b"redirected"))
        assert db.controller.redirected_writes == 1
        assert db.metadata.contains(encode_key(1))
        assert run(env, db.get(encode_key(1))) == b"redirected"
        db.close()

    def test_metadata_cleaned_when_main_overwrites(self):
        env = Environment()
        db, ssd, _ = small_kvaccel(env, rollback="disabled")
        db.detector.stall_condition = True
        run(env, db.put(encode_key(2), b"dev-copy"))
        db.detector.stall_condition = False
        run(env, db.put(encode_key(2), b"main-copy"))  # step 3-1
        assert not db.metadata.contains(encode_key(2))
        assert run(env, db.get(encode_key(2))) == b"main-copy"
        db.close()

    def test_no_redirection_during_rollback(self):
        env = Environment()
        db, ssd, _ = small_kvaccel(env, rollback="disabled")
        db.detector.stall_condition = True
        db.controller.rollback_in_progress = True
        run(env, db.put(encode_key(3), b"to-main"))
        assert db.controller.redirected_writes == 0
        assert db.controller.normal_writes == 1
        db.close()

    def test_redirected_delete_tombstone(self):
        env = Environment()
        db, ssd, _ = small_kvaccel(env, rollback="disabled")
        run(env, db.put(encode_key(4), b"live"))
        db.detector.stall_condition = True
        run(env, db.delete(encode_key(4)))
        assert run(env, db.get(encode_key(4))) is None
        db.close()


class TestRollbackConfig:
    def test_invalid_scheme(self):
        with pytest.raises(ValueError):
            RollbackConfig(scheme="sometimes")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RollbackConfig(quiet_window=-1)

    def test_rollback_preserves_seq_order(self):
        env = Environment()
        db, ssd, _ = small_kvaccel(env, rollback="disabled")
        db.detector.stall_condition = True
        run(env, db.put(encode_key(9), b"dev-old"))
        db.detector.stall_condition = False
        run(env, db.put(encode_key(9), b"main-new"))  # removes metadata entry
        # force rollback: the stale dev copy must NOT shadow main's copy
        run(env, db.final_rollback())
        run(env, db.wait_for_quiesce())
        assert run(env, db.get(encode_key(9))) == b"main-new"
        db.close()

    def test_rollback_merges_tombstones(self):
        env = Environment()
        db, ssd, _ = small_kvaccel(env, rollback="disabled")
        run(env, db.put(encode_key(11), b"doomed"))
        db.detector.stall_condition = True
        run(env, db.delete(encode_key(11)))
        db.detector.stall_condition = False
        run(env, db.final_rollback())
        assert ssd.kv.is_empty
        assert run(env, db.get(encode_key(11))) is None
        db.close()
