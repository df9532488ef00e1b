"""Tests for the post-run analysis module."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db  # noqa: E402

from repro.metrics import (  # noqa: E402
    RunResult,
    StallBreakdown,
    WriteAmplification,
    stall_breakdown,
    write_amplification,
)
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402


class TestWriteAmplification:
    def test_factor_and_breakdown(self):
        wa = WriteAmplification(user_bytes=100, wal_bytes=100,
                                flush_bytes=100, compaction_bytes=200,
                                redirect_bytes=50)
        assert wa.total_device_writes == 450
        assert wa.factor == pytest.approx(4.5)
        b = wa.breakdown()
        assert b["wal"] == pytest.approx(1.0)
        assert b["compaction"] == pytest.approx(2.0)

    def test_zero_user_bytes(self):
        wa = WriteAmplification(0, 0, 0, 0)
        assert wa.factor == 0.0
        assert wa.breakdown() == {}

    def test_from_live_db(self):
        env = Environment()
        db, _, _ = small_db(env)

        def gen():
            for i in range(2000):
                yield from db.put(encode_key(i), b"x" * 64)

        run(env, gen())
        run(env, db.wait_for_quiesce())
        wa = write_amplification(db)
        assert wa.user_bytes == db.stats.user_write_bytes
        assert wa.wal_bytes > 0
        assert wa.flush_bytes > 0
        assert wa.compaction_bytes > 0
        # sanity: an LSM writes each byte more than once overall
        assert wa.factor > 1.5


class TestStallBreakdown:
    def test_fractions_and_extremes(self):
        sb = StallBreakdown(duration=10.0, stall_events=2, stall_time=3.0,
                            delayed_time=1.0,
                            intervals=[(0.0, 1.0), (5.0, 7.0)])
        assert sb.stall_fraction == pytest.approx(0.3)
        assert sb.delayed_fraction == pytest.approx(0.1)
        assert sb.longest_stall == pytest.approx(2.0)

    def test_empty(self):
        sb = StallBreakdown(duration=0.0, stall_events=0, stall_time=0.0,
                            delayed_time=0.0)
        assert sb.stall_fraction == 0.0
        assert sb.longest_stall == 0.0

    def test_from_run_result(self):
        r = RunResult(name="x", duration=4.0, write_ops=1, read_ops=0,
                      write_bytes=10)
        r.total_stall_time = 1.0
        r.stall_intervals = [(0.0, 1.0)]
        r.stall_events = 1
        sb = stall_breakdown(r)
        assert sb.stall_fraction == pytest.approx(0.25)
        assert sb.stall_events == 1
