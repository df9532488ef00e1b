"""Tests for the write controller's stall / slowdown state machine."""

import pytest

from repro.device import KiB, MiB
from repro.lsm import LsmOptions, StallReason, WriteController, WriteState
from repro.sim import Environment


class FakeStats:
    def __init__(self):
        self.imm = 0
        self.l0 = 0
        self.pending = 0
        self.mem_full = False

    def __call__(self):
        return self.imm, self.l0, self.pending, self.mem_full


def make_wc(env, **opt_kw):
    opt = LsmOptions(**opt_kw)
    stats = FakeStats()
    return WriteController(env, opt, stats), stats, opt


def test_normal_state_passes_instantly():
    env = Environment()
    wc, stats, _ = make_wc(env)
    held = []

    def writer():
        h = yield from wc.gate(4096)
        held.append((env.now, h))

    env.process(writer())
    env.run()
    assert held == [(0, 0.0)]
    assert wc.state == WriteState.NORMAL


def test_stop_on_immutable_memtables():
    env = Environment()
    wc, stats, _ = make_wc(env)
    # max_write_buffer_number=2: stall needs a full active memtable AND an
    # immutable one still flushing.
    stats.imm = 1
    stats.mem_full = True
    wc.refresh()
    assert wc.state == WriteState.STOPPED
    assert wc.reason == StallReason.MEMTABLE


def test_stop_on_l0_and_pending():
    env = Environment()
    wc, stats, opt = make_wc(env)
    stats.l0 = opt.level0_stop_writes_trigger
    wc.refresh()
    assert (wc.state, wc.reason) == (WriteState.STOPPED, StallReason.L0)
    stats.l0 = 0
    stats.pending = opt.hard_pending_compaction_bytes_limit
    wc.refresh()
    assert (wc.state, wc.reason) == (WriteState.STOPPED, StallReason.PENDING_BYTES)


def test_delay_on_l0_slowdown_trigger():
    env = Environment()
    wc, stats, opt = make_wc(env)
    stats.l0 = opt.level0_slowdown_writes_trigger
    wc.refresh()
    assert (wc.state, wc.reason) == (WriteState.DELAYED, StallReason.L0)


def test_gate_blocks_until_stall_clears():
    env = Environment()
    wc, stats, _ = make_wc(env)
    stats.imm = 1
    stats.mem_full = True
    done = []

    def writer():
        h = yield from wc.gate(4096)
        done.append((env.now, h))

    def resolver():
        yield env.timeout(2.5)
        stats.imm = 0
        wc.refresh()

    env.process(writer())
    env.process(resolver())
    env.run()
    assert done[0][0] == pytest.approx(2.5)
    assert done[0][1] == pytest.approx(2.5)
    assert wc.stall_events == 1
    assert wc.stall_intervals == [(0, 2.5)]
    assert wc.total_stall_time == pytest.approx(2.5)


def test_gate_recheck_after_restall():
    """Conditions can re-degrade the instant a stall clears."""
    env = Environment()
    wc, stats, opt = make_wc(env)
    stats.imm = 1
    stats.mem_full = True
    done = []

    def writer():
        yield from wc.gate(4096)
        done.append(env.now)

    def resolver():
        yield env.timeout(1)
        stats.imm = 0
        stats.l0 = opt.level0_stop_writes_trigger  # stalls again immediately
        wc.refresh()
        yield env.timeout(1)
        stats.l0 = 0
        wc.refresh()

    env.process(writer())
    env.process(resolver())
    env.run()
    assert done == [2]
    # Reason changed but the stall never lifted: one continuous stall.
    assert wc.stall_events == 1
    assert wc.stall_intervals == [(0, 2)]


def test_delayed_rate_throttles_to_token_bucket():
    env = Environment()
    wc, stats, opt = make_wc(env, delayed_write_rate=1 * MiB)
    stats.l0 = opt.level0_slowdown_writes_trigger
    finished = []

    def writer():
        for _ in range(10):
            yield from wc.gate(128 * KiB)
        finished.append(env.now)

    env.process(writer())
    env.run()
    # Token bucket: the first write passes free, each later one waits its
    # predecessor's quantum -> 9 x 128 KiB / 1 MiB/s.
    assert finished[0] == pytest.approx(9 * 128 * KiB / (1 * MiB), rel=0.05)
    assert wc.total_delayed_time > 0
    assert wc.slowdown_events == 1


def test_slowdown_disabled_ignores_delay():
    env = Environment()
    wc, stats, opt = make_wc(env, slowdown_enabled=False)
    stats.l0 = opt.level0_slowdown_writes_trigger
    done = []

    def writer():
        h = yield from wc.gate(1 * MiB)
        done.append((env.now, h))

    env.process(writer())
    env.run()
    assert done == [(0, 0.0)]
    assert wc.slowdown_events == 0
    assert wc.state != WriteState.NORMAL  # detector still sees the pressure


def test_finalize_closes_open_interval():
    env = Environment()
    wc, stats, _ = make_wc(env)
    stats.imm = 1
    stats.mem_full = True
    wc.refresh()

    def advance():
        yield env.timeout(3)

    env.process(advance())
    env.run()
    wc.finalize()
    assert wc.stall_intervals == [(0, 3)]
    assert wc.total_stall_time == pytest.approx(3)
