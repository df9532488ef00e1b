"""Direct tests for the block interface (BlockDevice)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_device  # noqa: E402

from repro.device import FtlError  # noqa: E402
from repro.sim import Environment  # noqa: E402


def test_write_maps_pages_and_charges_both_pipes():
    env = Environment()
    dev = small_device(env)
    run(env, dev.write(0, 16 * 1024))
    assert dev.bytes_written == 16 * 1024
    assert dev.pcie.ledger.total_bytes >= 16 * 1024
    assert dev.nand.total_bytes >= 16 * 1024
    # pages mapped in the block region
    assert dev.ftl.mapped_pages("block") >= 4


def test_read_charges_nand_then_pcie():
    env = Environment()
    dev = small_device(env)
    run(env, dev.write(0, 8192))
    nand0 = dev.nand.total_bytes
    run(env, dev.read(0, 8192))
    assert dev.bytes_read == 8192
    assert dev.nand.total_bytes == nand0 + 8192


def test_out_of_range_extent_rejected():
    env = Environment()
    dev = small_device(env)
    with pytest.raises(FtlError):
        run(env, dev.write(dev.capacity_bytes - 100, 4096))
    with pytest.raises(ValueError):
        run(env, dev.write(-1, 10))


def test_trim_unmaps_extent():
    env = Environment()
    dev = small_device(env)
    run(env, dev.write(0, 4096 * 4))
    before = dev.ftl.mapped_pages("block")
    dev.trim(0, 4096 * 2)
    assert dev.ftl.mapped_pages("block") == before - 2


def test_overwrite_same_extent_remaps():
    env = Environment()
    dev = small_device(env)
    run(env, dev.write(0, 4096))
    run(env, dev.write(0, 4096))
    # still exactly one live page for that LPN
    assert dev.ftl.mapped_pages("block") == 1


def test_priority_passthrough_smoke():
    env = Environment()
    dev = small_device(env)
    run(env, dev.write(0, 4096, priority=1))
    run(env, dev.read(0, 4096, priority=0))
    assert dev.bytes_written == 4096 and dev.bytes_read == 4096
