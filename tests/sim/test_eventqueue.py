"""EventQueue unit tests: ordering, the now lane, peek/len, empty pop.

The queue's contract is a *total order* over ``(time, priority, seq)``
regardless of which lane an entry lands in (the heap or the now lane).
These tests drive the two lanes directly; the hypothesis property test in
``tests/prop/test_scheduler_order.py`` fuzzes the same contract.
"""

import pytest

from repro.sim.eventqueue import _COMPACT_PTR, EventQueue

INF = float("inf")


def drain(q: EventQueue) -> list:
    out = []
    while len(q):
        out.append(q.pop())
    return out


def entries(seq_times, prio=1):
    return [(t, prio, i, f"e{i}") for i, t in enumerate(seq_times)]


# -- the heap ----------------------------------------------------------------

def test_orders_by_time_priority_seq():
    q = EventQueue()
    es = [(5.0, 1, 0, "a"), (1.0, 1, 1, "b"), (1.0, 0, 2, "c"),
          (1.0, 1, 3, "d"), (INF, 1, 4, "e")]
    for e in es:
        q.push(e)
    assert drain(q) == sorted(es)


def test_large_population_preserves_total_order():
    q = EventQueue()
    es = entries((i * 0.37) % 100.0 for i in range(2000))
    for e in es:
        q.push(e)
    assert drain(q) == sorted(es)


def test_infinity_entries_serve_last_in_seq_order():
    q = EventQueue()
    es = entries([3.0, 1.0, INF, 2.0, INF, INF])
    for e in es:
        q.push(e)
    assert drain(q) == sorted(es)


# -- the now lane ------------------------------------------------------------

def test_now_lane_interleaves_with_timed_entries():
    q = EventQueue()
    q.push((0.0, 1, 0, "timed0"))
    q.push((1.0, 1, 1, "timed1"))
    q.push_now((0.0, 1, 2, "now2"))
    q.push_now((0.0, 1, 3, "now3"))
    q.push((0.0, 0, 4, "interrupt"))   # priority 0 beats the lane
    assert [e[3] for e in drain(q)] == [
        "interrupt", "timed0", "now2", "now3", "timed1"]


def test_now_lane_alone_pops_in_fifo_order():
    q = EventQueue()
    for i in range(16):
        q.push_now((0.0, 1, i, f"n{i}"))
    assert len(q) == 16
    assert [e[2] for e in drain(q)] == list(range(16))


def test_now_lane_defers_to_earlier_seq_infinite_heap_entry():
    # The +inf edge: a +inf heap entry with a *smaller* seq than a +inf
    # now-lane entry (the clock has reached +inf) must be served first.
    q = EventQueue()
    q.push((INF, 1, 100, "heap-first"))
    q.push_now((INF, 1, 200, "now-second"))
    assert [e[3] for e in drain(q)] == ["heap-first", "now-second"]


def test_now_lane_compacts_its_consumed_prefix():
    q = EventQueue()
    n = _COMPACT_PTR + 2
    for i in range(n):
        q.push_now((0.0, 1, i, None))
        assert q.pop()[2] == i
    # The consumed None prefix was dropped in place at least once.
    assert len(q._nowq) < n
    assert len(q) == 0


def test_peek_time_agrees_with_pop_everywhere():
    q = EventQueue()
    es = entries((i * 1.7) % 23.0 for i in range(500))
    for e in es:
        q.push(e)
    q.push_now((0.0, 1, 10_000, "now"))
    while len(q):
        t = q.peek_time()
        e = q.pop()
        assert e[0] == t
    assert q.peek_time() == INF


def test_len_counts_both_lanes():
    q = EventQueue()
    for e in entries(float(i) for i in range(300)):
        q.push(e)
    q.push_now((0.0, 1, 1000, "n"))
    assert len(q) == 301
    q.pop()
    assert len(q) == 300


def test_pop_from_empty_raises_indexerror():
    q = EventQueue()
    with pytest.raises(IndexError):
        q.pop()
