"""Tests for LsmOptions validation and scaling."""

import pytest

from repro.device import KiB, MiB
from repro.lsm import LsmOptions
from repro.lsm.db import (CPU_COMPACT_PER_BYTE, CPU_FLUSH_PER_BYTE, CPU_NEXT,
                          CPU_PUT, CPU_SEEK)


def test_defaults_are_rocksdb_like():
    o = LsmOptions()
    assert o.write_buffer_size == 128 * MiB
    assert o.level0_file_num_compaction_trigger == 4
    assert o.level0_slowdown_writes_trigger == 20
    assert o.level0_stop_writes_trigger == 36
    assert o.max_bytes_for_level_multiplier == 10
    assert o.slowdown_enabled is True


@pytest.mark.parametrize("bad", [
    dict(write_buffer_size=0),
    dict(level0_file_num_compaction_trigger=0),
    dict(level0_slowdown_writes_trigger=50),   # > stop trigger
    dict(soft_pending_compaction_bytes_limit=32 * 1024 * MiB,
         hard_pending_compaction_bytes_limit=16 * 1024 * MiB),
    dict(max_background_compactions=0),
    dict(num_levels=1),
    dict(delayed_write_rate=0),
])
def test_invalid_options_rejected(bad):
    with pytest.raises(ValueError):
        LsmOptions(**bad)


def test_scaled_shrinks_capacities_only():
    o = LsmOptions()
    s = o.scaled(1 / 64)
    assert s.write_buffer_size == o.write_buffer_size // 64
    assert s.max_bytes_for_level_base == o.max_bytes_for_level_base // 64
    assert s.target_file_size_base == o.target_file_size_base // 64
    # counts and rates untouched
    assert s.level0_stop_writes_trigger == o.level0_stop_writes_trigger
    assert s.delayed_write_rate == o.delayed_write_rate


def test_scaled_floors_at_4k():
    o = LsmOptions()
    s = o.scaled(1e-9)
    assert s.write_buffer_size == 4 * KiB


def test_scaled_invalid_factor():
    with pytest.raises(ValueError):
        LsmOptions().scaled(0)


def test_cpu_costs_ordering():
    # sanity of the cost model's relative magnitudes
    assert CPU_NEXT < CPU_PUT < CPU_SEEK
    assert CPU_FLUSH_PER_BYTE <= CPU_COMPACT_PER_BYTE
