"""Lockstep equivalence of the kernel's dispatch loop and ``step()``.

``Environment.run`` is one inlined loop that serves three stop conditions
(drain, deadline, stop event) and an optional observer slot (the
journal's); ``step()`` is the cold reference dispatch.
Every combination must execute the *same events in the same order* on
the same workload — the fast path is allowed to change how fast the
simulator runs, never what it computes.  The journal's per-event records
give an exact event-stream fingerprint; a workload-level trace covers the
unobserved loop (which cannot journal).
"""

import pytest

from repro.obs import Journal
from repro.sim import AllOf, Environment, Interrupt, Resource


def build_workload(env: Environment, trace: list):
    """A deterministic mix of every hot event pattern: timeouts (incl.
    zero-delay), event signalling (the now lane), priority interrupts,
    resource handoffs, schedule_at, AllOf joins and spawn churn."""
    res = Resource(env, capacity=2)
    gate = env.event()

    def ticker(name, delay, n):
        for i in range(n):
            yield env.timeout(delay)
            trace.append((env.now, name, i))

    def zero_delay(name, n):
        for i in range(n):
            yield env.timeout(0)
            trace.append((env.now, name, i))

    def signaller():
        yield env.timeout(0.5)
        gate.succeed("open")
        trace.append((env.now, "signalled", 0))

    def waiter(name):
        v = yield gate
        trace.append((env.now, name, v))
        with res.request() as req:
            yield req
            yield env.timeout(0.25)
        trace.append((env.now, name, "released"))

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            trace.append((env.now, "interrupted", exc.cause))

    def interrupter(victim):
        yield env.timeout(1.5)
        victim.interrupt("wake")

    def spawner(n):
        children = [env.process(ticker(f"child{i}", 0.1 + i * 0.01, 3))
                    for i in range(n)]
        yield AllOf(env, children)
        trace.append((env.now, "joined", n))

    def scheduled():
        ev = env.event()
        env.schedule_at(ev, 2.0)
        yield ev
        trace.append((env.now, "at", None))

    for i in range(4):
        env.process(ticker(f"t{i}", 0.3 + i * 1e-3, 8))
    env.process(zero_delay("z", 5))
    env.process(signaller())
    for i in range(3):
        env.process(waiter(f"w{i}"))
    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.process(spawner(4))
    env.process(scheduled())


DEADLINE = 1.7            # mid-run, between two events
OBSERVERS = ["none", "journal"]
MODES = ["drain", "deadline", "stop-event"]


def _journal_events(journal):
    return [rec for rec in journal.records if rec[0] == "event"]


def _build(observers: str):
    env, trace = Environment(), []
    build_workload(env, trace)
    # The stop event: a process that ends mid-run, while tickers, the
    # sleeper and the schedule_at waiter are all still pending.
    stop = env.process(_stopper(env))
    jr = Journal(period=0.5).install(env) if observers == "journal" else None
    return env, trace, jr, stop


def _stopper(env):
    yield env.timeout(DEADLINE)
    return "stopped"


def _run_loop(observers: str, mode: str):
    env, trace, jr, stop = _build(observers)
    if mode == "drain":
        assert env.run() is None
    elif mode == "deadline":
        assert env.run(until=DEADLINE) is None
    else:
        assert env.run(until=stop) == "stopped"
    return env, trace, jr


def _run_stepped(mode: str):
    """The reference: ``step()`` under an explicit stop condition."""
    env, trace, jr, stop = _build("journal")
    while len(env._queue):
        if mode == "deadline" and env.peek() >= DEADLINE:
            env._now = DEADLINE
            break
        if mode == "stop-event" and stop.processed:
            break
        env.step()
    return env, trace, jr


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("observers", OBSERVERS)
def test_loop_matches_step_reference(observers, mode):
    ref_env, ref_trace, ref_jr = _run_stepped(mode)
    env, trace, jr = _run_loop(observers, mode)
    assert trace == ref_trace
    assert env.now == ref_env.now
    assert env.events_scheduled == ref_env.events_scheduled
    assert len(env._queue) == len(ref_env._queue)
    if jr is not None:
        # Event-by-event: the exact same (idx, t, proc, class) stream,
        # and the same digest checkpoints between them.
        assert _journal_events(ref_jr), "journal recorded no events"
        assert list(jr.records) == list(ref_jr.records)


def test_stop_conditions_leave_work_pending():
    # Guards the matrix above against a vacuous pass: the deadline and the
    # stop event really do cut the run short of the drain.
    drained = _run_loop("none", "drain")[0]
    assert len(drained._queue) == 0
    for mode in ("deadline", "stop-event"):
        env = _run_loop("none", mode)[0]
        assert len(env._queue) > 0
        assert env.now < drained.now
