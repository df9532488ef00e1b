"""Property test: the event queue dequeues in ``(time, priority, seq)`` order.

For *arbitrary* interleavings of pushes (finite, same-instant, priority-0
interrupt, zero-delay/now-lane, +inf) and pops, every pop of
:class:`~repro.sim.eventqueue.EventQueue` must return exactly the minimum
of what an independent reference — a plain list, ``sorted()`` on demand —
holds at that moment.  The only constraint the kernel guarantees (and the
strategy must respect) is that now-lane entries carry the current clock
value and seq strictly increases.
"""

import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.sim.eventqueue import EventQueue  # noqa: E402

INF = float("inf")

# op := ("push", delay-ticks, priority) | ("now",) | ("inf",) | ("pop", k)
# Few distinct ticks, so same-instant ties (broken by priority, then seq)
# are the common case rather than the exception.
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 40),
                  st.sampled_from([1, 1, 1, 0])),
        st.tuples(st.just("now")),
        st.tuples(st.just("inf")),
        st.tuples(st.just("pop"), st.integers(1, 8)),
    ),
    min_size=1, max_size=300)


def _drive(ops):
    """Replay ``ops`` against an EventQueue and the sorted-list reference
    side by side; return the dequeued key sequence."""
    q = EventQueue()
    reference: list = []
    now = 0.0
    seq = 0
    popped = []

    def pop_one():
        nonlocal now
        entry = q.pop()
        reference.sort()
        assert entry == reference.pop(0)
        popped.append(entry[:3])
        now = max(now, entry[0])

    for op in ops:
        kind = op[0]
        if kind == "pop":
            for _ in range(min(op[1], len(reference))):
                pop_one()
            continue
        if kind == "push":
            entry = (now + op[1] * 0.125, op[2], seq, None)
            q.push(entry)
        elif kind == "inf":
            entry = (INF, 1, seq, None)
            q.push(entry)
        else:
            # The kernel's zero-delay route: timestamped exactly *now*.
            entry = (now, 1, seq, None)
            q.push_now(entry)
        reference.append(entry)
        seq += 1
        assert len(q) == len(reference)
    while reference:
        pop_one()
    assert len(q) == 0
    return popped


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops_strategy)
def test_queue_matches_sorted_reference(ops):
    _drive(ops)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops_strategy)
def test_popped_times_never_regress(ops):
    # Within one drive, dequeue times are nondecreasing: the queue never
    # releases an entry earlier than one it already released (entries are
    # never pushed into the past — ``now`` tracks the last popped time).
    times = [t for t, _p, _s in _drive(ops)]
    assert times == sorted(times)
