"""Macro events: channel-burst batching on the NAND and PCIe paths.

A burst schedules one kernel event per group of up to MACRO_MAX page
operations, but every per-op plane must be preserved: fault probes fire
per op, the PCIe ledger sees each chunk over the exact sub-interval it
held the pipe, the NAND byte total counts every op, the error model
consults per op (and truncates the burst like the scalar path), and FIFO
fairness holds at group granularity.  Timing must match a back-to-back scalar sequence modulo
float reassociation (one summed timeout vs chained additions).
"""

import pytest

from repro.device import MiB, NandArray, NandGeometry
from repro.device import error_model
from repro.device.error_model import NandErrorConfig, NandErrorModel
from repro.device.ftl import Ftl
from repro.device.pcie import MACRO_MAX, BandwidthPipe
from repro.faults.plan import AlwaysPlan, NthOccurrencePlan
from repro.faults.registry import (
    DELAY,
    FAIL,
    FaultAction,
    FaultRegistry,
    InjectedFault,
)
from repro.resil import DeviceError
from repro.sim import Environment


def run(env, gen):
    out = []

    def wrap():
        out.append((yield from gen))

    env.process(wrap())
    env.run()
    return out[0]


def small_ftl():
    return Ftl(NandGeometry(channels=1, ways=1, blocks_per_way=16,
                            pages_per_block=4, page_size=4096))


# ------------------------------------------------------- pcie transfer_burst

def test_transfer_burst_matches_scalar_timing_and_ledger():
    sizes = [512 * 1024, 256 * 1024, 128 * 1024] * 12   # 36 chunks, 3 groups

    def scalar():
        env = Environment()
        pipe = BandwidthPipe(env, 100 * MiB, name="p", bucket=0.01)

        def go():
            for nb in sizes:
                yield from pipe.transfer(nb, direction="rx")

        env.process(go())
        env.run()
        return env, pipe

    env_b = Environment()
    pipe_b = BandwidthPipe(env_b, 100 * MiB, name="p", bucket=0.01)
    env_b.process(pipe_b.transfer_burst(sizes, direction="rx"))
    env_b.run()

    env_s, pipe_s = scalar()
    assert env_b.now == pytest.approx(env_s.now)
    lb, ls = pipe_b.ledger, pipe_s.ledger
    assert lb.total_bytes == pytest.approx(ls.total_bytes)
    # Per-op attribution: the same bytes land in the same time buckets.
    assert set(lb._buckets) == set(ls._buckets)
    for k in ls._buckets:
        assert lb._buckets[k] == pytest.approx(ls._buckets[k])


def test_transfer_burst_coalesces_kernel_events():
    env = Environment()
    pipe = BandwidthPipe(env, 100 * MiB, name="p")
    n = MACRO_MAX * 2 + 3
    env.process(pipe.transfer_burst([4096] * n))
    env.run()
    assert env.macro.bursts == 1
    assert env.macro.ops == n
    assert env.macro.events == 3                       # ceil(35 / 16)
    assert env.macro.coalesce_factor == pytest.approx(n / 3)


def test_single_chunk_burst_delegates_to_scalar_path():
    env = Environment()
    pipe = BandwidthPipe(env, 100 * MiB, name="p")
    env.process(pipe.transfer_burst([4096]))
    env.run()
    assert env.macro.bursts == 0                       # scalar path: no macro


def test_empty_burst_is_a_no_op():
    env = Environment()
    pipe = BandwidthPipe(env, 100 * MiB, name="p")
    env.process(pipe.transfer_burst([]))
    env.run()
    assert env.now == 0.0
    assert env.macro.ops == 0


def test_transfer_burst_validates_like_scalar():
    env = Environment()
    pipe = BandwidthPipe(env, 100 * MiB, name="p")
    with pytest.raises(ValueError):
        run(env, pipe.transfer_burst([4096, 8192], direction="sideways"))
    env2 = Environment()
    pipe2 = BandwidthPipe(env2, 100 * MiB, name="p")
    with pytest.raises(ValueError):
        run(env2, pipe2.transfer_burst([4096, -1]))


def test_transfer_burst_fault_probe_fires_per_chunk():
    env = Environment()
    reg = FaultRegistry(seed=3).install(env)
    # Fail exactly the 5th pipe.transfer probe: chunks 1-4 of the burst
    # must survive, the 5th must raise — proof the probe is per op, not
    # per burst.
    reg.arm("p.transfer", NthOccurrencePlan(5), FaultAction(FAIL),
            validate=False)
    pipe = BandwidthPipe(env, 100 * MiB, name="p")
    with pytest.raises(InjectedFault):
        run(env, pipe.transfer_burst([4096] * 8))


def test_transfer_burst_folds_delay_into_faulted_chunk():
    def total_time(arm_delay):
        env = Environment()
        if arm_delay:
            reg = FaultRegistry(seed=3).install(env)
            reg.arm("p.transfer", AlwaysPlan(),
                    FaultAction(DELAY, delay=0.5), validate=False)
        pipe = BandwidthPipe(env, 100 * MiB, name="p")
        env.process(pipe.transfer_burst([4096] * 4))
        env.run()
        return env.now

    assert total_time(True) == pytest.approx(total_time(False) + 4 * 0.5)


# ------------------------------------------------------------ nand io_burst

def test_io_burst_matches_scalar_timing_and_ledger():
    ops = [("read", 64 * 1024), ("program", 32 * 1024)] * 10

    env_s = Environment()
    nand_s = NandArray(env_s, NandGeometry(), peak_bandwidth=100 * MiB)

    def scalar():
        for op, nb in ops:
            yield from nand_s.io(op, nb)

    env_s.process(scalar())
    env_s.run()

    env_b = Environment()
    nand_b = NandArray(env_b, NandGeometry(), peak_bandwidth=100 * MiB)
    env_b.process(nand_b.io_burst(ops))
    env_b.run()

    assert env_b.now == pytest.approx(env_s.now)
    assert nand_b.busy_time == pytest.approx(nand_s.busy_time)
    assert nand_b.total_bytes == nand_s.total_bytes == sum(
        nb for _op, nb in ops)


def test_io_burst_coalesces_and_counts():
    env = Environment()
    nand = NandArray(env, NandGeometry(), peak_bandwidth=100 * MiB)
    n = MACRO_MAX + 1
    env.process(nand.io_burst([("program", 4096)] * n))
    env.run()
    assert env.macro.bursts == 1
    assert env.macro.ops == n
    assert env.macro.events == 2


def test_io_burst_error_truncates_like_scalar(monkeypatch):
    monkeypatch.setattr(error_model, "RETIRE_AFTER_PROGRAM_FAILS", 99)
    env = Environment()
    ftl = small_ftl()
    nand = NandArray(env, NandGeometry(), peak_bandwidth=100 * MiB)
    nand.error_model = NandErrorModel(
        env, ftl, NandErrorConfig(program_fail_base=1.0))
    ftl.write(0)
    with pytest.raises(DeviceError):
        run(env, nand.io_burst([("read", 4096)] * 3
                               + [("program", 4096)] * 5))
    # The failing program is op 4; ops after it never ran.
    assert env.macro.ops == 4
    # The failed command still occupied the media before erroring.
    assert env.now > 0.0
    assert nand.busy_time == pytest.approx(env.now)


def test_io_burst_fault_site_per_op():
    env = Environment()
    reg = FaultRegistry(seed=3).install(env)
    reg.arm("nand.read", NthOccurrencePlan(3), FaultAction(FAIL))
    nand = NandArray(env, NandGeometry(), peak_bandwidth=100 * MiB)
    with pytest.raises(InjectedFault):
        run(env, nand.io_burst([("read", 4096)] * 6))


def test_io_burst_fifo_fairness_at_group_granularity():
    env = Environment()
    nand = NandArray(env, NandGeometry(), peak_bandwidth=100 * MiB)
    done = []

    def burst(name, n_ops):
        yield from nand.io_burst([("read", 4096)] * n_ops)
        done.append(name)

    # A needs two channel grants (2 groups); B one.  The channel is
    # re-requested between groups, so B runs between A's groups and
    # finishes first — scalar-FIFO behaviour at group granularity.
    env.process(burst("A", MACRO_MAX * 2))
    env.process(burst("B", MACRO_MAX))
    env.run()
    assert done == ["B", "A"]


def test_io_burst_validates_op_and_bytes():
    env = Environment()
    nand = NandArray(env, NandGeometry(), peak_bandwidth=100 * MiB)
    with pytest.raises(ValueError):
        run(env, nand.io_burst([("read", 4096), ("program", -1)]))
    env2 = Environment()
    nand2 = NandArray(env2, NandGeometry(), peak_bandwidth=100 * MiB)
    with pytest.raises(ValueError):
        run(env2, nand2.io_burst([("flurp", 4096), ("read", 4096)]))


# --------------------------------------------------------- ftl write_batch

def test_ftl_write_batch_is_strictly_equivalent_to_scalar_writes():
    a, b = small_ftl(), small_ftl()
    lpns = [0, 3, 1, 0, 2, 5, 1]
    ppns_batch = a.write_batch(lpns)
    ppns_scalar = [b.write(lpn) for lpn in lpns]
    assert ppns_batch == ppns_scalar
    assert a.state_digest() == b.state_digest()


def test_ftl_write_batch_accepts_generators():
    # Any iterable maps page by page, a one-shot generator included.
    a, b = small_ftl(), small_ftl()
    assert a.write_batch(lpn for lpn in [0, 1, 2]) == b.write_batch([0, 1, 2])
