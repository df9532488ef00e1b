"""Tests for key generators, workload specs, and db_bench drivers."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db, small_options  # noqa: E402

from repro.bench.profiles import paper_profile  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import ValueRef  # noqa: E402
from repro.workload import db_bench  # noqa: E402
from repro.workload import (  # noqa: E402
    WORKLOADS,
    DriverConfig,
    FillRandomDriver,
    RandomKeys,
    ReadWhileWritingDriver,
    SeekRandomDriver,
    fill_database,
    value_for,
)


class TestKeyGen:
    def test_random_keys_in_space(self):
        g = RandomKeys(key_space=100, seed=1)
        for _ in range(1000):
            k = g.next_key()
            assert len(k) == 4
            assert int.from_bytes(k, "big") < 100

    def test_random_deterministic_by_seed(self):
        a = [RandomKeys(1000, seed=5).next_key() for _ in range(10)]
        b = [RandomKeys(1000, seed=5).next_key() for _ in range(10)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomKeys(0)

    def test_value_for(self):
        v = value_for(b"\x00\x00\x00\x01", 4096)
        assert isinstance(v, ValueRef)
        assert v.size == 4096

    def test_iter_protocol(self):
        g = RandomKeys(1000, seed=5)
        it = iter(g)
        assert next(it) == RandomKeys(1000, seed=5).next_key()


class TestSpecs:
    def test_table_iv_shapes(self):
        assert WORKLOADS["A"].kind == "fillrandom"
        assert WORKLOADS["B"].write_ratio == pytest.approx(0.9)
        assert WORKLOADS["C"].read_ratio == pytest.approx(0.2)
        assert WORKLOADS["D"].kind == "seekrandom"
        # Sizes and D's Nexts are the drivers' constants, D's fill the
        # profile's.
        assert db_bench.NEXTS_PER_SEEK == 1024
        assert paper_profile().seekrandom_fill_bytes == 20 * 1024 ** 3
        assert db_bench.KEY_SIZE == 4
        assert db_bench.VALUE_SIZE == 4096

    def test_invalid_spec(self):
        from repro.workload import WorkloadSpec
        with pytest.raises(ValueError):
            WorkloadSpec(name="X", kind="mystery")


@pytest.fixture
def small_values(monkeypatch):
    """64 B values in batches of 8: drivers over a small DB."""
    monkeypatch.setattr(db_bench, "VALUE_SIZE", 64)
    monkeypatch.setattr(db_bench, "BATCH_SIZE", 8)


@pytest.mark.usefixtures("small_values")
class TestDrivers:
    def test_fillrandom_runs_for_duration(self):
        env = Environment()
        db, _, _ = small_db(env)
        cfg = DriverConfig(duration=0.05, key_space=10_000)
        drv = FillRandomDriver(env, db, cfg)
        p = drv.start()
        env.run(until=p)
        assert drv.write_ops > 0
        assert drv.write_bytes == drv.write_ops * (4 + 64 + 8)

    def test_readwhilewriting_ratio(self):
        env = Environment()
        db, _, _ = small_db(env)
        cfg = DriverConfig(duration=0.1, key_space=1000)
        drv = ReadWhileWritingDriver(env, db, cfg, write_ratio=0.9,
                                     read_ratio=0.1)
        p = drv.start()
        env.run(until=p)
        env.run(until=env.now + 0.01)  # let the reader notice the writer ended
        assert drv.write_ops > 0 and drv.read_ops > 0
        ratio = drv.read_ops / drv.write_ops
        assert ratio == pytest.approx(1 / 9, rel=0.5)

    def test_readwhilewriting_validation(self):
        env = Environment()
        db, _, _ = small_db(env)
        cfg = DriverConfig(duration=0.1)
        with pytest.raises(ValueError):
            ReadWhileWritingDriver(env, db, cfg, write_ratio=0, read_ratio=1)

    def test_seekrandom_counts_entries(self, monkeypatch):
        monkeypatch.setattr(db_bench, "BATCH_SIZE", 16)
        monkeypatch.setattr(db_bench, "NEXTS_PER_SEEK", 32)
        env = Environment()
        db, _, _ = small_db(env)
        cfg = DriverConfig(duration=0.001, key_space=500)
        fill_p = fill_database(env, db, total_bytes=100_000, config=cfg)
        env.run(until=fill_p)
        drv = SeekRandomDriver(env, db, cfg)
        p = drv.start()
        env.run(until=p)
        assert drv.seeks > 0
        assert drv.entries_scanned > 0
        assert drv.read_ops == drv.entries_scanned + drv.seeks

    def test_fill_database_loads_bytes(self):
        env = Environment()
        db, _, _ = small_db(env)
        cfg = DriverConfig(duration=1.0, key_space=100_000)
        p = fill_database(env, db, total_bytes=50_000, config=cfg)
        env.run(until=p)
        assert db.stats.user_write_bytes >= 50_000
