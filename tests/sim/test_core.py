"""Unit tests for the DES kernel (Environment, Event, Process)."""

import pytest

from repro.obs import Journal
from repro.sim import Environment, Event, Interrupt, SimulationError


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(5)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [5, 7.5]


def test_timeout_value_passthrough():
    env = Environment()
    got = []

    def proc():
        v = yield env.timeout(1, value="hello")
        got.append(v)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def make(i):
        def proc():
            yield env.timeout(1)
            order.append(i)
        return proc

    for i in range(5):
        env.process(make(i)())
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_time_stops_midway():
    env = Environment()
    log = []

    def proc():
        for _ in range(10):
            yield env.timeout(1)
            log.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert log == [1, 2, 3]
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42
    assert env.now == 2


@pytest.mark.parametrize("plane", ["plain", "journaled"])
def test_run_until_processed_event_returns_at_once(plane):
    # The event already fired: return its value (or raise its failure)
    # without dispatching anything — a perpetual daemon must not turn the
    # call into an endless drain.
    env = Environment()
    if plane == "journaled":
        Journal().install(env)

    def ticker():
        while env.now < 50:         # bounded so a regression fails, not hangs
            yield env.timeout(1)

    def short(fail):
        yield env.timeout(0.5)
        if fail:
            raise RuntimeError("boom")
        return "early"

    env.process(ticker())
    ok, bad = env.process(short(False)), env.process(short(True))
    bad.defuse()
    env.run(until=0.75)
    assert ok.processed and bad.processed
    scheduled = env.events_scheduled
    assert env.run(until=ok) == "early"
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=bad)
    assert env.now == 0.75
    assert env.events_scheduled == scheduled


def test_process_join():
    env = Environment()
    log = []

    def child():
        yield env.timeout(3)
        return "done"

    def parent():
        result = yield env.process(child())
        log.append((env.now, result))

    env.process(parent())
    env.run()
    assert log == [(3, "done")]


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        v = yield ev
        got.append((env.now, v))

    def trigger():
        yield env.timeout(4)
        ev.succeed("sig")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == [(4, "sig")]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_propagates_to_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(proc())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_process_exception_propagates_to_joiner():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1)
        raise KeyError("k")

    def parent():
        try:
            yield env.process(child())
        except KeyError:
            caught.append(env.now)

    env.process(parent())
    env.run()
    assert caught == [1]


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
            log.append("overslept")
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def interrupter(target):
        yield env.timeout(5)
        target.interrupt("wake")

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    assert log == [(5, "wake")]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_all_of_waits_for_all():
    env = Environment()
    log = []

    def proc():
        t1 = env.timeout(3, value="a")
        t2 = env.timeout(7, value="b")
        results = yield env.all_of([t1, t2])
        log.append((env.now, sorted(results.values())))

    env.process(proc())
    env.run()
    assert log == [(7, ["a", "b"])]


def test_any_of_fires_on_first():
    env = Environment()
    log = []

    def proc():
        t1 = env.timeout(3, value="fast")
        t2 = env.timeout(7, value="slow")
        results = yield env.any_of([t1, t2])
        log.append((env.now, list(results.values())))

    env.process(proc())
    env.run()
    assert log == [(3, ["fast"])]


def test_yield_already_processed_event_resumes_same_time():
    env = Environment()
    log = []
    ev = env.event()
    ev.succeed("early")

    def proc():
        yield env.timeout(2)  # let ev get processed first
        v = yield ev
        log.append((env.now, v))

    env.process(proc())
    env.run()
    assert log == [(2, "early")]


def test_schedule_at_absolute():
    env = Environment()
    ev = env.event()
    env.schedule_at(ev, 9.0)
    got = []

    def proc():
        yield ev
        got.append(env.now)

    env.process(proc())
    env.run()
    assert got == [9.0]


def test_schedule_at_past_rejected():
    env = Environment()
    env.run(until=10)
    with pytest.raises(ValueError):
        env.schedule_at(env.event(), 5.0)


def test_peek_and_step():
    env = Environment()
    env.timeout(4)
    assert env.peek() == 4
    env.step()
    assert env.now == 4
    assert env.peek() == float("inf")


def test_step_empty_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_nonevent_yield_is_error():
    env = Environment()

    def proc():
        yield 42  # type: ignore[misc]

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_deadline_without_events_advances_clock():
    env = Environment()
    env.run(until=50)
    assert env.now == 50
