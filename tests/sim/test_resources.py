"""Unit tests for Resource / PriorityResource / Store."""

import pytest

from repro.sim import Environment, Interrupt, PriorityResource, Resource, Store


def test_resource_capacity_enforced():
    env = Environment()
    res = Resource(env, capacity=2)
    active = []
    peak = []

    def worker(i):
        with res.request() as req:
            yield req
            active.append(i)
            peak.append(len(res.users))
            yield env.timeout(10)
            active.remove(i)

    for i in range(5):
        env.process(worker(i))
    env.run()
    assert max(peak) == 2
    assert active == []


def test_resource_fifo_grant_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(i):
        with res.request() as req:
            yield req
            order.append(i)
            yield env.timeout(1)

    for i in range(4):
        env.process(worker(i))
    env.run()
    assert order == [0, 1, 2, 3]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_release_queued_request_cancels():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    env.process(holder())

    def canceller():
        yield env.timeout(1)
        req = res.request()  # queued behind holder
        req.release()
        assert len(res.queue) == 0

    env.process(canceller())

    def late(i):
        yield env.timeout(2)
        with res.request() as req:
            yield req
            order.append(i)

    env.process(late("late"))
    env.run()
    assert order == ["late"]


def test_double_release_is_noop():
    env = Environment()
    res = Resource(env, capacity=1)

    def worker():
        req = res.request()
        yield req
        req.release()
        req.release()

    env.process(worker())
    env.run()
    assert res.count == 0


def test_priority_resource_orders_by_priority():
    env = Environment()
    res = PriorityResource(env)
    order = []

    def holder():
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(10)

    def worker(name, prio, delay):
        yield env.timeout(delay)
        with res.request(priority=prio) as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    env.process(holder())
    env.process(worker("low", 5, 1))
    env.process(worker("high", 1, 2))  # arrives later but higher priority
    env.run()
    assert order == ["high", "low"]


def test_store_fifo():
    env = Environment()
    s = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield env.timeout(1)
            yield s.put(i)

    def consumer():
        for _ in range(3):
            item = yield s.get()
            got.append((env.now, item))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [(1, 0), (2, 1), (3, 2)]


def test_store_len():
    env = Environment()
    s = Store(env)
    s.put("x")
    s.put("y")
    assert len(s) == 2


def test_interrupt_while_waiting_on_request():
    """An Interrupt delivered while queued detaches the waiter; releasing
    the request must free the queue slot so later arrivals still get the
    resource (no leaked grant to a dead waiter)."""
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    waiter_proc = None

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def waiter():
        req = res.request()
        try:
            yield req
            log.append("granted")
        except Interrupt:
            req.release()
            log.append("interrupted")

    def poker():
        yield env.timeout(1)
        waiter_proc.interrupt("give up")

    def late():
        yield env.timeout(2)
        with res.request() as req:
            yield req
            log.append("late")

    env.process(holder())
    waiter_proc = env.process(waiter())
    env.process(poker())
    env.process(late())
    env.run()
    assert log == ["interrupted", "late"]
    assert len(res.queue) == 0
    assert res.users == []


def test_interrupted_waiter_grant_not_double_delivered():
    """If the holder releases at the same instant the waiter is interrupted,
    the waiter must see exactly one outcome (the Interrupt), and the grant
    must flow to the next queued request instead."""
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    waiter_proc = None

    def holder():
        req = res.request()
        yield req
        yield env.timeout(1)
        res.release(req)

    def waiter():
        req = res.request()
        try:
            yield req
            log.append("granted")
        except Interrupt:
            # The grant may have already fired: release() handles both the
            # still-queued and the just-granted case.
            req.release()
            log.append("interrupted")

    def poker():
        # Interrupt lands at t=1, racing the holder's release.
        yield env.timeout(1)
        waiter_proc.interrupt()

    def other():
        with res.request() as req:
            yield req
            log.append("other")

    env.process(holder())
    waiter_proc = env.process(waiter())
    env.process(poker())
    env.process(other())
    env.run()
    assert log.count("interrupted") + log.count("granted") == 1
    assert "other" in log
