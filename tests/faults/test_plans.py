"""Unit tests for fault plans and the injection registry."""

import random

import pytest

from repro.faults import (
    FAIL,
    AlwaysPlan,
    AtTimePlan,
    DEFAULT_SEED,
    FaultAction,
    FaultRegistry,
    InjectedFault,
    NthOccurrencePlan,
    ProbabilisticPlan,
    ScriptedPlan,
    fault_point,
    touch,
)
from repro.sim import Environment


def test_never_and_always():
    always = AlwaysPlan()
    for occ in (1, 2, 100):
        assert always.should_fire(occ, 0.0)


def test_nth_occurrence():
    plan = NthOccurrencePlan(3)
    assert [plan.should_fire(i, 0.0) for i in (1, 2, 3, 4, 6)] == [
        False, False, True, False, False]
    rep = NthOccurrencePlan(3, repeat=True)
    assert [rep.should_fire(i, 0.0) for i in (1, 2, 3, 4, 6)] == [
        False, False, True, False, True]
    with pytest.raises(ValueError):
        NthOccurrencePlan(0)


def test_probabilistic_is_reproducible_from_seed():
    a = ProbabilisticPlan(0.3, seed=42)
    b = ProbabilisticPlan(0.3, seed=42)
    seq_a = [a.should_fire(i, 0.0) for i in range(1, 200)]
    seq_b = [b.should_fire(i, 0.0) for i in range(1, 200)]
    assert seq_a == seq_b
    assert any(seq_a) and not all(seq_a)
    with pytest.raises(ValueError):
        ProbabilisticPlan(1.5)


def test_probabilistic_shares_registry_rng():
    reg = FaultRegistry(seed=7)
    plan = ProbabilisticPlan(0.5, rng=reg.rng)
    ref = ProbabilisticPlan(0.5, rng=random.Random(7))
    assert ([plan.should_fire(i, 0.0) for i in range(1, 50)]
            == [ref.should_fire(i, 0.0) for i in range(1, 50)])


def test_at_time_fires_once_at_or_after_t():
    plan = AtTimePlan(1.0)
    assert not plan.should_fire(1, 0.5)
    assert plan.should_fire(2, 1.5)
    assert not plan.should_fire(3, 2.0)   # one-shot


def test_scripted_plan_consumes_times_in_order():
    plan = ScriptedPlan([0.5, 1.2])
    assert not plan.should_fire(1, 0.1)
    assert plan.should_fire(2, 0.6)       # consumes 0.5
    assert not plan.should_fire(3, 0.7)
    assert plan.should_fire(4, 1.3)       # consumes 1.2
    assert not plan.should_fire(5, 9.9)


def test_registry_counts_and_traces_hits():
    env = Environment()
    reg = FaultRegistry().install(env)
    assert env.faults is reg
    assert reg.seed == DEFAULT_SEED
    reg.record_trace = True
    touch(env, "a.site")
    touch(env, "a.site")
    touch(env, "b.site")
    assert reg.hits == {"a.site": 2, "b.site": 1}
    assert [(h.site, h.occurrence) for h in reg.trace] == [
        ("a.site", 1), ("a.site", 2), ("b.site", 1)]


def test_registry_glob_arming_and_fail():
    env = Environment()
    reg = FaultRegistry().install(env)
    reg.arm("kv.*", NthOccurrencePlan(2), FaultAction(FAIL))
    touch(env, "kv.put.submit")           # occurrence 1: no fire
    touch(env, "nand.program")            # different site family
    with pytest.raises(InjectedFault) as exc:
        touch(env, "kv.put.submit")       # occurrence 2: fires
    assert exc.value.site == "kv.put.submit"
    assert exc.value.occurrence == 2
    assert reg.injected == [("kv.put.submit", 2, FAIL, 0.0)]
    reg.clear_arms()
    touch(env, "kv.put.submit")           # disarmed: no raise


def test_fault_point_is_noop_without_registry():
    env = Environment()

    def probe():
        action = yield from fault_point(env, "any.site")
        assert action is None
        yield env.timeout(0)

    env.run(until=env.process(probe()))


def test_fault_point_delay_stretches_op():
    env = Environment()
    reg = FaultRegistry().install(env)
    reg.arm("slow.site", AlwaysPlan(), FaultAction(kind="delay", delay=0.25),
            validate=False)

    def probe():
        action = yield from fault_point(env, "slow.site")
        assert action is None             # DELAY is absorbed by the probe

    env.run(until=env.process(probe()))
    assert env.now == pytest.approx(0.25)


def test_crash_action_latches_and_fires_event():
    env = Environment()
    reg = FaultRegistry().install(env)
    reg.arm("x", AlwaysPlan(), FaultAction(kind="crash"), validate=False)
    ev = reg.new_crash_event(env)
    assert touch(env, "x") is None        # crash returns None to the site
    assert reg.crashed_at is not None
    assert reg.crashed_at.site == "x"
    assert ev.triggered


def test_action_validation():
    with pytest.raises(ValueError):
        FaultAction(kind="explode")
    with pytest.raises(ValueError):
        FaultAction(kind="delay", delay=-1)
