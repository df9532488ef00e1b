"""Tests for PeriodicSampler."""

import pytest

from repro.sim import Environment, PeriodicSampler


def test_sampler_collects_once_per_period():
    env = Environment()
    ops = [0]

    def workload():
        for _ in range(10):
            yield env.timeout(0.25)
            ops[0] += 1

    env.process(workload())
    sampler = PeriodicSampler(env, lambda: ops[0], period=1.0)
    env.run(until=3.0)
    assert sampler.times == [1.0, 2.0]
    # 4 ops per second at 0.25s spacing; the op at a tick lands before or
    # after that tick's sample depending on ordering, never further off.
    for t, count in zip(sampler.times, sampler.values):
        assert 4 * t - 1 <= count <= 4 * t
    assert ops[0] == 10


def test_sampler_stop():
    env = Environment()
    sampler = PeriodicSampler(env, lambda: 1.0, period=1.0)

    def stopper():
        yield env.timeout(2.5)
        sampler.stop()

    env.process(stopper())
    env.run(until=10)
    assert sampler.times == [1.0, 2.0]


def test_sampler_invalid_period():
    env = Environment()
    with pytest.raises(ValueError):
        PeriodicSampler(env, lambda: 0.0, period=0)


def test_sampler_flush_records_partial_bucket():
    # A horizon that is not a period multiple leaves a partial bucket;
    # flush must record it at the current clock, not drop it.
    env = Environment()
    ops = [0]

    def workload():
        for _ in range(5):
            yield env.timeout(0.5)
            ops[0] += 1

    env.process(workload())
    sampler = PeriodicSampler(env, lambda: ops[0], period=1.0)
    env.run(until=2.6)  # exclusive deadline: the op at t=2.5 still fires
    assert sampler.times == [1.0, 2.0]
    assert sampler.flush() is True
    assert sampler.times == [1.0, 2.0, 2.6]
    assert sampler.values[-1] == 5


def test_sampler_flush_idempotent_and_noop_on_tick():
    env = Environment()
    sampler = PeriodicSampler(env, lambda: 1.0, period=1.0)
    env.run(until=3.0)
    # run(until=3.0) is exclusive of the deadline, so the t=3.0 tick has
    # not fired; the clock sits at 3.0 past the last recorded tick at 2.0.
    assert sampler.times == [1.0, 2.0]
    assert sampler.flush() is True
    assert sampler.times == [1.0, 2.0, 3.0]
    # Second flush at the same clock appends nothing.
    assert sampler.flush() is False
    assert sampler.times == [1.0, 2.0, 3.0]


def test_sampler_flush_before_first_tick():
    env = Environment()
    sampler = PeriodicSampler(env, lambda: 7.0, period=10.0)
    # At creation time there is nothing to flush.
    assert sampler.flush() is False
    env.run(until=4.0)
    assert sampler.flush() is True
    assert sampler.times == [4.0]
    assert sampler.values == [7.0]
