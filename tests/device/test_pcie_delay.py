"""Injected PCIe delays must be attributed, not vanish between samples.

Satellite of the resilience PR: a DELAY armed at ``pcie.transfer`` is
folded into the transfer's service interval, so the link's busy time,
the traffic ledger, and the telemetry byte channels all see the slowed
transfer the way Intel PCM would.
"""

from unittest import mock

import pytest

from repro.device import pcie
from repro.device.pcie import PcieLink
from repro.faults.plan import AlwaysPlan, NthOccurrencePlan
from repro.faults.registry import (
    DELAY,
    FAIL,
    FaultAction,
    FaultRegistry,
    InjectedFault,
)
from repro.sim import Environment

NBYTES = 1 << 20


def make_link(env, seconds_per_transfer=1.0, bucket=1.0):
    """A latency-free link: every transfer lasts exactly its bytes over
    the bandwidth."""
    with mock.patch.object(pcie, "PCIE_LATENCY", 0.0):
        return PcieLink(env, bandwidth=NBYTES / seconds_per_transfer,
                        bucket=bucket)


def run_transfer(env, link, nbytes=NBYTES):
    done = []

    def proc():
        yield from link.transfer(nbytes)
        done.append(env.now)

    env.process(proc())
    env.run()
    return done[0]


def test_baseline_transfer_time():
    env = Environment()
    link = make_link(env)
    assert run_transfer(env, link) == pytest.approx(1.0)


def test_injected_delay_stretches_the_transfer():
    env = Environment()
    reg = FaultRegistry(seed=1).install(env)
    reg.arm("pcie.transfer", AlwaysPlan(), FaultAction(DELAY, delay=0.5))
    link = make_link(env)
    assert run_transfer(env, link) == pytest.approx(1.5)
    # The link stays busy for the stretched 1.5 s: a third of the bytes
    # land in the second bucket.
    assert link.ledger.bytes_in(1.0, 2.0) == pytest.approx(NBYTES / 3)


def test_delay_attributed_in_ledger_buckets():
    env = Environment()
    reg = FaultRegistry(seed=1).install(env)
    reg.arm("pcie.transfer", AlwaysPlan(), FaultAction(DELAY, delay=1.0))
    link = make_link(env, seconds_per_transfer=1.0, bucket=1.0)
    run_transfer(env, link)
    # The 1 MiB moved over [0, 2): half the bytes land in each PCM bucket,
    # instead of all of them in bucket 0 with a dead second after.
    assert link.ledger.total_bytes == NBYTES
    assert link.ledger.bytes_in(0.0, 1.0) == pytest.approx(NBYTES / 2)
    assert link.ledger.bytes_in(1.0, 2.0) == pytest.approx(NBYTES / 2)


def test_delay_shows_in_telemetry_bytes():
    from repro.obs import TelemetryHub

    env = Environment()
    hub = TelemetryHub(env, period=1.0).install(env)
    reg = FaultRegistry(seed=1).install(env)
    reg.arm("pcie.transfer", AlwaysPlan(), FaultAction(DELAY, delay=0.5))
    link = make_link(env)

    def proc():
        yield from link.transfer(NBYTES)
        yield env.timeout(2.0)          # let the sampler close its buckets

    # The hub's sampler never goes idle, so run to the workload process.
    env.run(until=env.process(proc()))
    assert sum(hub.channels["pcie.tx_bytes"].values) == pytest.approx(NBYTES)


def test_only_armed_occurrence_is_delayed():
    env = Environment()
    reg = FaultRegistry(seed=1).install(env)
    reg.arm("pcie.transfer", NthOccurrencePlan(2),
            FaultAction(DELAY, delay=0.25))
    link = make_link(env)
    times = []

    def proc():
        for _ in range(3):
            t0 = env.now
            yield from link.transfer(NBYTES)
            times.append(env.now - t0)

    env.process(proc())
    env.run()
    assert times == [pytest.approx(1.0), pytest.approx(1.25),
                     pytest.approx(1.0)]


def test_fail_action_still_raises():
    env = Environment()
    reg = FaultRegistry(seed=1).install(env)
    reg.arm("pcie.transfer", AlwaysPlan(), FaultAction(FAIL))
    link = make_link(env)
    caught = []

    def proc():
        try:
            yield from link.transfer(NBYTES)
        except InjectedFault as exc:
            caught.append(exc)

    env.process(proc())
    env.run()
    assert caught and caught[0].site == "pcie.transfer"
