"""The DES kernel's pending-event set: one binary heap plus a now lane.

Entries are ``(time, priority, seq, event)`` tuples and dequeue in exactly
that tuple order — same-timestamp ties broken by priority (0 = interrupt,
1 = ordinary) then schedule sequence.  This is the kernel's determinism
contract; every golden trajectory pins on it.

Every experiment in the repository keeps tens of events pending (peak 39,
on an 8-shard cluster; README "Performance"), so a C-accelerated ``heapq``
is the whole timed structure.  The *now lane* beside it takes entries
scheduled at exactly the current simulation time (``succeed``, process
boot/finish, immediate resumes): the clock never moves backwards and seq
strictly increases, so appends arrive pre-sorted and dequeue needs at most
one tuple comparison against the heap head — none when the heap is idle,
which is the steady state of signalling traffic.

``Environment`` pushes and pops through ``_heap``/``_nowq``/``_nptr``
directly at its hot sites; the methods here are the same operations for
cold callers and tests.  Both lists are only ever mutated in place.
"""

from __future__ import annotations

from heapq import heappop, heappush

__all__ = ["EventQueue"]

# Consumed-slot prefix of the now lane tolerated before compaction.
_COMPACT_PTR = 8192


class EventQueue:
    """Binary heap of timed entries plus the append-only now lane."""

    __slots__ = ("_heap", "_nowq", "_nptr")

    def __init__(self):
        self._heap: list = []
        self._nowq: list = []
        self._nptr = 0                 # consumed slots [0:_nptr) are None

    def __len__(self) -> int:
        return len(self._heap) + len(self._nowq) - self._nptr

    def push(self, entry: tuple) -> None:
        """Enqueue a timed entry (any time >= the clock, any priority)."""
        heappush(self._heap, entry)

    def push_now(self, entry: tuple) -> None:
        """Enqueue a priority-1 entry timestamped exactly *now*.

        Correct only when the entry's time equals the current simulation
        time at the moment of the call and its seq is the largest issued
        so far — which is what keeps the lane sorted without sorting.
        """
        nowq = self._nowq
        nowq.append(entry)
        if self._nptr > _COMPACT_PTR:
            del nowq[:self._nptr]
            self._nptr = 0

    def pop(self) -> tuple:
        """Pop the minimum entry: min(now-lane head, heap head)."""
        nowq = self._nowq
        nptr = self._nptr
        heap = self._heap
        if nptr < len(nowq) and not (heap and heap[0] < nowq[nptr]):
            entry = nowq[nptr]
            nowq[nptr] = None          # drop the ref: the event is freed
            self._nptr = nptr + 1      # as soon as its dispatch ends
            return entry
        if heap:
            return heappop(heap)
        raise IndexError("pop from empty EventQueue")

    def peek_time(self) -> float:
        """Time of the next entry, or +inf when empty."""
        t = self._heap[0][0] if self._heap else float("inf")
        if self._nptr < len(self._nowq):
            return min(t, self._nowq[self._nptr][0])
        return t
