"""The sim-clock retry executor: schedules, deadlines, timeout races."""

import pytest

from repro.resil import (
    DeviceError,
    MEDIA,
    PERSISTENT,
    RetryExecutor,
    RetryPolicy,
    TIMEOUT,
    TRANSIENT,
    backoff_schedule,
)
from repro.sim import Environment


def run(env, gen):
    return env.run(until=env.process(gen))


def flaky_command(env, failures, kind=TRANSIENT, cost=1e-3, state=None):
    """A command generator factory failing the first ``failures`` calls."""
    state = state if state is not None else {"calls": 0}

    def factory():
        def cmd():
            state["calls"] += 1
            yield env.timeout(cost)
            if state["calls"] <= failures:
                raise DeviceError(kind, site="test.cmd")
            return ("ok", state["calls"])
        return cmd()

    return factory, state


# ----------------------------------------------------------- schedules
def test_backoff_schedule_deterministic():
    policy = RetryPolicy(max_attempts=6)
    a = backoff_schedule(policy, seed=0xC0FFEE)
    b = backoff_schedule(policy, seed=0xC0FFEE)
    assert a == b                       # bit-identical
    c = backoff_schedule(policy, seed=0xC0FFEE + 1)
    assert a != c                       # seed actually matters


def test_backoff_exponential_and_bounded():
    policy = RetryPolicy(max_attempts=8, base_delay=1e-4, max_delay=1e-3,
                         multiplier=2.0, jitter=0.5)
    sched = backoff_schedule(policy, seed=7)
    for i, delay in enumerate(sched):
        nominal = min(policy.max_delay,
                      policy.base_delay * policy.multiplier ** i)
        span = nominal * policy.jitter
        assert nominal - span <= delay <= nominal + span


def test_zero_jitter_is_pure_exponential():
    policy = RetryPolicy(max_attempts=4, base_delay=1e-4, max_delay=1.0,
                         multiplier=2.0, jitter=0.0)
    assert backoff_schedule(policy, seed=1) == [1e-4, 2e-4, 4e-4]


# -------------------------------------------------------------- retries
def test_transient_failure_retried_to_success():
    env = Environment()
    ex = RetryExecutor(env, RetryPolicy(max_attempts=4), seed=1)
    factory, state = flaky_command(env, failures=2)
    result = run(env, ex.call(factory, site="test.cmd"))
    assert result == ("ok", 3)
    assert state["calls"] == 3
    assert ex.stats.retries == 2
    assert ex.stats.errors == 2
    assert ex.stats.by_kind == {TRANSIENT: 2}


def test_retry_sleeps_on_sim_clock():
    env = Environment()
    policy = RetryPolicy(max_attempts=4, jitter=0.0, base_delay=1e-3,
                         max_delay=1e-2)
    ex = RetryExecutor(env, policy, seed=1)
    factory, _ = flaky_command(env, failures=2, cost=1e-4)
    run(env, ex.call(factory))
    # 3 attempts x 1e-4 command cost + backoffs of 1e-3 and 2e-3.
    assert env.now == pytest.approx(3e-4 + 1e-3 + 2e-3)


def test_nonretryable_surfaces_immediately():
    for kind in (PERSISTENT, MEDIA):
        env = Environment()
        ex = RetryExecutor(env, RetryPolicy(max_attempts=4), seed=1)
        factory, state = flaky_command(env, failures=99, kind=kind)
        with pytest.raises(DeviceError) as exc_info:
            run(env, ex.call(factory))
        assert exc_info.value.kind == kind
        assert state["calls"] == 1          # exactly one attempt
        assert ex.stats.nonretryable == 1
        assert ex.stats.retries == 0


def test_attempt_budget_exhaustion():
    env = Environment()
    ex = RetryExecutor(env, RetryPolicy(max_attempts=3), seed=1)
    factory, state = flaky_command(env, failures=99)
    with pytest.raises(DeviceError):
        run(env, ex.call(factory))
    assert state["calls"] == 3
    assert ex.stats.exhausted == 1
    assert ex.stats.retries == 2


def test_deadline_respected():
    env = Environment()
    policy = RetryPolicy(max_attempts=10, jitter=0.0, base_delay=5e-3,
                         max_delay=5e-3, deadline=8e-3)
    ex = RetryExecutor(env, policy, seed=1)
    factory, state = flaky_command(env, failures=99, cost=1e-3)
    with pytest.raises(DeviceError):
        run(env, ex.call(factory))
    # Attempt 1 (1 ms) + backoff (5 ms) + attempt 2 (1 ms) = 7 ms spent;
    # the next backoff would land past the 8 ms deadline -> give up.
    assert state["calls"] == 2
    assert ex.stats.deadline_exceeded == 1
    assert env.now <= policy.deadline


def test_real_bugs_not_retried():
    env = Environment()
    ex = RetryExecutor(env, RetryPolicy(max_attempts=5), seed=1)
    state = {"calls": 0}

    def factory():
        def cmd():
            state["calls"] += 1
            yield env.timeout(1e-4)
            raise ValueError("logic bug")
        return cmd()

    with pytest.raises(ValueError):
        run(env, ex.call(factory))
    assert state["calls"] == 1


# ------------------------------------------------------- command timeout
def test_command_timeout_interrupts_and_retries():
    env = Environment()
    policy = RetryPolicy(max_attempts=3, jitter=0.0, base_delay=1e-4,
                         max_delay=1e-4, command_timeout=1e-3)
    ex = RetryExecutor(env, policy, seed=1)
    state = {"calls": 0}

    def factory():
        def cmd():
            state["calls"] += 1
            if state["calls"] == 1:
                yield env.timeout(1.0)      # hangs: must be cut at 1 ms
            else:
                yield env.timeout(1e-4)
            return "done"
        return cmd()

    result = run(env, ex.call(factory, site="slow.cmd"))
    assert result == "done"
    assert state["calls"] == 2
    assert ex.stats.timeouts == 1
    assert ex.stats.by_kind == {TIMEOUT: 1}
    assert env.now == pytest.approx(1e-3 + 1e-4 + 1e-4)


def test_command_timeout_exhaustion_surfaces_timeout_error():
    env = Environment()
    policy = RetryPolicy(max_attempts=2, jitter=0.0, command_timeout=1e-3)
    ex = RetryExecutor(env, policy, seed=1)

    def factory():
        def cmd():
            yield env.timeout(1.0)
        return cmd()

    with pytest.raises(DeviceError) as exc_info:
        run(env, ex.call(factory))
    assert exc_info.value.kind == TIMEOUT
    assert ex.stats.timeouts == 2


def test_completion_at_exact_deadline_is_used():
    env = Environment()
    policy = RetryPolicy(max_attempts=2, command_timeout=1e-3)
    ex = RetryExecutor(env, policy, seed=1)

    def factory():
        def cmd():
            yield env.timeout(1e-3)         # completes AT the deadline
            return "boundary"
        return cmd()

    assert run(env, ex.call(factory)) == "boundary"
    assert ex.stats.errors == 0


def test_failure_inside_timeout_race_is_classified():
    env = Environment()
    policy = RetryPolicy(max_attempts=3, jitter=0.0, base_delay=1e-4,
                         max_delay=1e-4, command_timeout=1e-2)
    ex = RetryExecutor(env, policy, seed=1)
    factory, state = flaky_command(env, failures=1, cost=1e-4)
    assert run(env, ex.call(factory)) == ("ok", 2)
    assert ex.stats.retries == 1


# -------------------------------------------------------------- seeding
def test_executor_seed_from_registry():
    from repro.faults.registry import FaultRegistry

    env = Environment()
    FaultRegistry(seed=0xABCD).install(env)
    ex = RetryExecutor(env, name="kv")
    assert ex.seed == 0xABCD


def test_executor_seed_from_environment_variable(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SEED", "0x1234")
    env = Environment()                      # no registry installed
    ex = RetryExecutor(env, name="kv")
    assert ex.seed == 0x1234


def test_malformed_seed_variable_is_an_error_not_the_default_seed(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SEED", "not-a-seed")
    with pytest.raises(ValueError, match="REPRO_FAULT_SEED"):
        RetryExecutor(Environment(), name="kv")   # no registry installed


def test_independent_streams_per_executor_name():
    env = Environment()
    a = RetryExecutor(env, seed=5, name="kv")
    b = RetryExecutor(env, seed=5, name="block")
    assert [a.rng.random() for _ in range(4)] != \
           [b.rng.random() for _ in range(4)]
