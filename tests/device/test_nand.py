"""Tests for the NAND array timing model."""

import pytest

from repro.device import MiB, NandArray, NandGeometry
from repro.sim import Environment


def make_nand(env, peak=None, **geo):
    g = NandGeometry(**geo) if geo else NandGeometry()
    return NandArray(env, g, peak_bandwidth=peak)


def test_peak_clamp():
    env = Environment()
    nand = NandArray(env, NandGeometry(), peak_bandwidth=10 * MiB)
    assert nand.read_bw == 10 * MiB
    assert nand.program_bw == 10 * MiB


def test_no_clamp_when_none():
    env = Environment()
    g = NandGeometry()
    nand = NandArray(env, g, peak_bandwidth=None)
    assert nand.read_bw == g.peak_read_bw
    assert nand.program_bw == g.peak_program_bw


def test_service_time_components():
    env = Environment()
    nand = NandArray(env, NandGeometry(), peak_bandwidth=1 * MiB)
    t = NandGeometry().timing
    assert nand.service_time("read", 1 * MiB) == pytest.approx(t.t_read + 1.0)
    assert nand.service_time("program", 1 * MiB) == pytest.approx(t.t_program + 1.0)
    assert nand.service_time("erase", 0) == pytest.approx(t.t_erase)


def test_unknown_op_raises():
    env = Environment()
    nand = make_nand(env, peak=1 * MiB)
    with pytest.raises(ValueError):
        nand.service_time("frobnicate", 1)
    with pytest.raises(ValueError):
        list(nand.io("read", -1))


def test_io_blocks_and_ledgers():
    env = Environment()
    nand = NandArray(env, NandGeometry(), peak_bandwidth=1 * MiB)
    done = []

    def proc():
        yield from nand.io("program", MiB // 2)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done[0] == pytest.approx(0.5, rel=0.01)
    assert nand.total_bytes == MiB // 2


def test_priority_scheduling_reorders_queue():
    """With priority scheduling, a late flush (prio 0) overtakes queued
    compaction I/O (prio 1)."""
    env = Environment()
    nand = NandArray(env, NandGeometry(), peak_bandwidth=1 * MiB,
                     priority_scheduling=True)
    order = []

    def io(name, prio, delay):
        yield env.timeout(delay)
        yield from nand.io("program", MiB // 4, priority=prio)
        order.append(name)

    env.process(io("head", 1, 0.0))       # occupies the device
    env.process(io("compact", 1, 0.01))   # queued background I/O
    env.process(io("flush", 0, 0.02))     # arrives later, higher priority
    env.run()
    assert order == ["head", "flush", "compact"]


def test_fifo_ignores_priority_param():
    env = Environment()
    nand = NandArray(env, NandGeometry(), peak_bandwidth=1 * MiB)
    order = []

    def io(name, prio, delay):
        yield env.timeout(delay)
        yield from nand.io("program", MiB // 4, priority=prio)
        order.append(name)

    env.process(io("head", 1, 0.0))
    env.process(io("compact", 1, 0.01))
    env.process(io("flush", 0, 0.02))
    env.run()
    assert order == ["head", "compact", "flush"]


def test_fifo_queueing_beyond_lanes():
    env = Environment()
    nand = NandArray(env, NandGeometry(), peak_bandwidth=1 * MiB)
    done = []

    def proc(name):
        yield from nand.io("read", 1 * MiB)
        done.append(name)

    env.process(proc("first"))
    env.process(proc("second"))
    env.run()
    assert done == ["first", "second"]
