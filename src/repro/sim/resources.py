"""Shared-resource primitives for the simulation kernel.

These model contention: a :class:`Resource` is a counted semaphore with a
FIFO queue (compaction-thread pools, NAND channels), and a :class:`Store`
is a FIFO of Python objects (work queues between threads).

All request/put/get operations return events, so processes simply ``yield``
them.  Request events double as context managers so the common pattern is::

    with resource.request() as req:
        yield req
        ... hold the resource ...
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .core import Environment, Event

__all__ = ["Resource", "Request", "Store", "PriorityResource"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "_released")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self._released = False
        resource._do_request(self)

    def release(self) -> None:
        self.resource.release(self)

    # Context-manager protocol: releases on exit.
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class Resource:
    """Counted FIFO resource (semaphore with queue introspection)."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self._capacity = capacity
        self.users: list[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        if request._released:
            return
        request._released = True
        try:
            self.users.remove(request)
        except ValueError:
            # Request was still queued: cancel instead.
            self._cancel(request)
            return
        # A grant succeeds the request with itself as its value; drop
        # that self-reference so the request dies by reference counting.
        request._value = None
        self._grant()

    # -- internal -----------------------------------------------------
    def _do_request(self, request: Request) -> None:
        env = self.env
        env.resource_requests += 1
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed(request)
        else:
            self.queue.append(request)
            env.resource_queued += 1

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed(nxt)


class PriorityRequest(Request):
    __slots__ = ("priority", "order")

    def __init__(self, resource: "PriorityResource", priority: int):
        self.priority = priority
        self.order = resource._order = resource._order + 1
        super().__init__(resource)


class PriorityResource(Resource):
    """One-slot resource whose queue is served lowest-priority-value first.

    Used for flush-over-compaction I/O scheduling (SILK-style priorities
    inside our device queues).
    """

    def __init__(self, env: Environment):
        super().__init__(env, 1)
        self._order = 0

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _grant(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = min(self.queue, key=lambda r: (r.priority, r.order))
            self.queue.remove(nxt)
            self.users.append(nxt)
            nxt.succeed(nxt)


class Store:
    """Unbounded FIFO object queue with blocking get."""

    def __init__(self, env: Environment):
        self.env = env
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        self.items.append(item)
        ev = Event(self.env)
        ev.succeed()
        self._serve()
        return ev

    def get(self) -> Event:
        ev = Event(self.env)
        self._getters.append(ev)
        self._serve()
        return ev

    def _serve(self) -> None:
        while self._getters and self.items:
            self._getters.popleft().succeed(self.items.popleft())
