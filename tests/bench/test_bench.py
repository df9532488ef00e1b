"""Tests for the experiment harness: profiles, runner, report."""

import os

import pytest

from repro.bench import (
    RunSpec,
    ShapeCheck,
    mini_profile,
    paper_profile,
    run_workload,
    series_sparkline,
    shape_check,
    table,
)
from repro.bench.profiles import active_profile


class TestProfiles:
    def test_paper_constants(self):
        p = paper_profile()
        assert p.duration == 600.0
        assert p.sample_period == 1.0
        assert p.options.write_buffer_size == 128 * 1024 * 1024
        assert p.detector.period == 0.1
        assert p.scale == 1.0

    def test_mini_scales_capacities_not_rates(self):
        paper = paper_profile()
        mini = mini_profile(64)
        assert mini.duration == pytest.approx(600 / 64)
        assert mini.options.write_buffer_size == paper.options.write_buffer_size // 64
        # rates unscaled
        assert mini.options.delayed_write_rate == paper.options.delayed_write_rate
        assert mini.ssd.peak_nand_bandwidth == paper.ssd.peak_nand_bandwidth
        # cadences scaled
        assert mini.detector.period == pytest.approx(0.1 / 64)
        assert mini.sample_period == pytest.approx(1 / 64)

    def test_mini_counts_unscaled(self):
        mini = mini_profile(64)
        paper = paper_profile()
        assert (mini.options.level0_slowdown_writes_trigger
                == paper.options.level0_slowdown_writes_trigger)
        assert (mini.options.max_write_buffer_number
                == paper.options.max_write_buffer_number)

    def test_mini_validation(self):
        with pytest.raises(ValueError):
            mini_profile(0)

    def test_active_profile_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "mini128")
        assert active_profile().name == "mini128"
        monkeypatch.setenv("REPRO_PROFILE", "paper")
        assert active_profile().name == "paper"
        monkeypatch.setenv("REPRO_PROFILE", "bogus")
        with pytest.raises(ValueError):
            active_profile()
        monkeypatch.delenv("REPRO_PROFILE")
        assert active_profile().name == "mini64"


class TestRunSpec:
    def test_display_names(self):
        assert RunSpec("rocksdb", "A", 1).display == "RocksDB(1)"
        assert RunSpec("rocksdb", "A", 4, slowdown=False).display == \
            "RocksDB(4) w/o slowdown"
        assert RunSpec("kvaccel", "A", 2, rollback="lazy").display == \
            "KVAccel(2)-L"
        assert RunSpec("kvaccel", "A", 2, rollback="eager").display == \
            "KVAccel(2)-E"
        assert RunSpec("adoc", "B", 1, label="custom").display == "custom"

    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec("leveldb", "A")
        with pytest.raises(ValueError):
            RunSpec("rocksdb", "Z")


class TestRunnerSmoke:
    @pytest.fixture(scope="class")
    def tiny_profile(self):
        # very short run for harness plumbing tests
        import dataclasses
        p = mini_profile(512)
        return dataclasses.replace(p, duration=0.3)

    def test_rocksdb_run_produces_result(self, tiny_profile):
        r = run_workload(RunSpec("rocksdb", "A", 1), tiny_profile)
        assert r.write_ops > 0
        assert r.duration > 0
        assert len(r.times) == len(r.write_ops_series)
        assert r.write_latency is not None
        assert r.extra["spec"].system == "rocksdb"
        assert sum(r.write_ops_series) <= r.write_ops

    def test_kvaccel_run_extras(self, tiny_profile):
        r = run_workload(RunSpec("kvaccel", "A", 1, rollback="disabled"),
                         tiny_profile)
        assert "redirected_writes" in r.extra
        assert "rollbacks" in r.extra
        assert r.slowdown_events == 0

    def test_readwhilewriting_run(self, tiny_profile):
        r = run_workload(RunSpec("adoc", "B", 1), tiny_profile)
        assert r.write_ops > 0
        assert r.read_ops > 0

    def test_seekrandom_run(self, tiny_profile):
        r = run_workload(RunSpec("rocksdb", "D", 1), tiny_profile)
        assert r.read_ops > 0
        assert r.extra["seeks"] > 0

    def test_pcie_series_collected(self, tiny_profile):
        r = run_workload(RunSpec("rocksdb", "A", 1), tiny_profile)
        assert sum(r.pcie_series) > 0
        assert r.cpu_utilization > 0


class TestReport:
    def test_table_alignment(self):
        out = table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5  # title + header + separator + 2 rows

    def test_sparkline_bounds(self):
        out = series_sparkline([0, 1, 2, 3], width=4)
        assert "max=3" in out
        assert series_sparkline([], label="x") == "x (empty)"

    def test_sparkline_downsamples(self):
        out = series_sparkline(list(range(1000)), width=10)
        # 10 glyphs + suffix
        assert len(out.split("  ")[0]) == 10

    def test_shape_check_pass_fail(self):
        c = shape_check("t")
        c.expect("ok", True)
        c.expect_order("bigger", 10, 5)
        assert c.passed
        c.expect("nope", False, "detail")
        assert not c.passed
        with pytest.raises(AssertionError):
            c.assert_all()
        rendered = c.render()
        assert "[PASS] ok" in rendered
        assert "[FAIL] nope" in rendered

    def test_expect_order_slack(self):
        c = ShapeCheck("t")
        assert c.expect_order("near tie ok", 9, 10, slack=0.85)
        assert not c.expect_order("strict", 9, 10, slack=1.0)
