"""Discrete-event simulation kernel.

A small, dependency-free kernel in the style of SimPy: an
:class:`Environment` owns an event queue and a clock; *processes* are Python
generators that ``yield`` events (most commonly :class:`Timeout`) and are
resumed when those events fire.  The kernel is deterministic: events that
fire at the same timestamp are processed in schedule order.

The whole reproduction (host LSM, device model, workload drivers, samplers)
is built from processes scheduled on one Environment, which is what lets us
report per-second time series equivalent to the paper's wall-clock
measurements.

Scheduling runs on one :class:`~repro.sim.eventqueue.EventQueue` (a binary
heap plus the now lane) and one dispatch loop, :meth:`Environment.run`;
:meth:`Environment.step` is its cold reference.  Hot event classes —
:class:`Timeout`, bare :class:`Event`, and the internal process-resume
event — are recycled through per-environment freelists, gated by a
refcount check so pooling can never resurrect an object something still
references.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from time import perf_counter_ns
from typing import Any, Callable, Generator, Iterable, Optional

from .eventqueue import _COMPACT_PTR, EventQueue

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "MacroStats",
    "Probes",
    "SimulationError",
    "KernelProfile",
    "install_kernel_profiler",
    "uninstall_kernel_profiler",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. triggering an event twice)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


_INF = float("inf")

# Event states
_PENDING = 0
_TRIGGERED = 1  # scheduled on the queue, not yet processed
_PROCESSED = 2


class Event:
    """A one-shot occurrence on the simulation timeline.

    Events hold a value (or an exception) and a list of callbacks invoked
    when the event is processed.  Processes waiting on an event are resumed
    through such callbacks.
    """

    __slots__ = ("env", "callbacks", "_proc", "_value", "_ok", "_state",
                 "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        # Fast slot: the single Process waiting on this event, when that
        # process registered first and alone.  The dispatch loop resumes it
        # inline, skipping the _resume trampoline frame; any further
        # waiters go through the callbacks list as usual.
        self._proc: Optional["Process"] = None
        self._value: Any = None
        self._ok: bool = True
        self._state = _PENDING
        self._defused = False

    # -- inspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire now with ``value``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        env = self.env
        env._seq += 1
        # succeed() always fires at the current time, so it lands on the
        # queue's now lane: a pre-sorted append (the clock never moves
        # backwards, seq strictly increases) that skips the heap and its
        # same-timestamp tuple-comparison walks entirely.  Inline mirror
        # of EventQueue.push_now — succeed is hot enough (resource
        # grants, ping-pong handoffs) to warrant it.
        q = env._queue
        nowq = q._nowq
        nowq.append((env._now, 1, env._seq, self))
        if q._nptr > _COMPACT_PTR:
            del nowq[:q._nptr]
            q._nptr = 0
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule this event to fire now, raising ``exception`` in waiters."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        self.env._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel does not re-raise."""
        self._defused = True

    def _run_callbacks(self) -> None:
        self._state = _PROCESSED
        proc = self._proc
        if proc is not None:
            # Registered before anything in the list, so resumes first.
            self._proc = None
            proc._resume(self)
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)
        if not self._ok and not self._defused:
            # Nobody handled the failure: surface it to the caller of run().
            raise self._value


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Timeouts are the kernel's dominant allocation (every driver loop,
    sampler tick, and flush poll creates one), so ``Environment.timeout``
    recycles processed instances through a freelist.  Construction here is
    flattened (no ``super().__init__`` chain) for the cold path.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        self.env = env
        self.callbacks = []
        self._proc = None
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        self._defused = False
        self.delay = delay
        env._seq += 1
        heappush(env._queue._heap, (env._now + delay, 1, env._seq, self))


class _ProcessResume(Event):
    """Internal event used to bootstrap / resume / interrupt a process."""

    __slots__ = ()


class Process(Event):
    """A running generator on the simulation timeline.

    A Process is itself an Event that fires when the generator returns
    (with the generator's return value) or raises.  Other processes can
    therefore ``yield proc`` to join it.
    """

    __slots__ = ("_generator", "_target", "name", "_send", "_resume_cb",
                 "_resume_ev")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        super().__init__(env)
        self._generator = generator
        self._send = generator.send
        self._resume_cb = self._resume          # cached: one resume per event
        self._target: Optional[Event] = None  # event the process waits on
        self.name = name or getattr(generator, "__name__", "process")
        # One reusable resume event bootstraps the process and is recycled
        # for every immediate resume (already-fired yield targets).  It is
        # reusable whenever it is not sitting on the queue (_PROCESSED).
        ppool = env._presume_pool
        boot = ppool.pop() if ppool else _ProcessResume(env)
        boot._state = _TRIGGERED
        boot._proc = self
        self._resume_ev = boot
        env._schedule(boot)

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._state != _PENDING:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self._target is not None:
            # Detach from the pending target so its firing cannot resume the
            # process a second time.  If the target already fired, its fast
            # slot / callbacks list were detached before dispatch, so both
            # branches miss harmlessly.
            if self._target._proc is self:
                self._target._proc = None
            else:
                try:
                    self._target.callbacks.remove(self._resume_cb)
                except ValueError:
                    pass
            self._target = None
        env = self.env
        ppool = env._presume_pool
        interrupt_ev = ppool.pop() if ppool else _ProcessResume(env)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev._state = _TRIGGERED
        interrupt_ev._proc = self
        env._schedule(interrupt_ev, priority=True)

    # -- internal ------------------------------------------------------
    def _finish(self, ok: bool, value: Any) -> None:
        """Terminate: fire this Process-as-Event with the final value."""
        self._ok = ok
        self._value = value
        self._state = _TRIGGERED
        self._target = None
        self.env._schedule(self)

    def _resume_processed(self, next_target: Event) -> None:
        """Wait on an already-fired event: resume again at this timestamp,
        recycling this process's resume event when it is off-queue."""
        env = self.env
        resume = self._resume_ev
        if resume._state != _PROCESSED:
            # Still scheduled (e.g. detached by an interrupt at this
            # timestamp): it cannot carry a second resume.
            ppool = env._presume_pool
            resume = ppool.pop() if ppool else _ProcessResume(env)
            self._resume_ev = resume
        else:
            resume._defused = False
        resume._ok = next_target._ok
        resume._value = next_target._value
        if not next_target._ok:
            resume._defused = True
            next_target._defused = True
        resume._state = _TRIGGERED
        resume._proc = self
        env._schedule(resume)
        self._target = resume

    def _resume(self, event: Event) -> None:
        # NOTE: run() inlines this method for the fast-slot path (one
        # Python frame per event saved); behavioural changes here must be
        # mirrored in the run() loop body.
        if self._state != _PENDING:  # e.g. interrupted after termination
            return
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                next_target = self._send(event._value)
            else:
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self._finish(True, stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            self._finish(False, exc)
            return
        env._active_process = None

        # Duck-typed Event check: anything with kernel state and a callback
        # list is an Event; the try/except costs nothing on the hot path.
        try:
            state = next_target._state
            cbs = next_target.callbacks
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {next_target!r}, "
                f"expected an Event"
            ) from None
        if state == _PROCESSED:
            self._resume_processed(next_target)
        elif next_target._proc is None and not cbs:
            # First, sole waiter: take the fast slot.  Failable events are
            # defused up front — the waiter receives any failure via
            # generator.throw, so the kernel must not re-raise it at
            # dispatch time.  (Timeouts can never fail; skipping the store
            # keeps their recycle path cheap.)
            if type(next_target) is not Timeout:
                next_target._defused = True
            next_target._proc = self
            self._target = next_target
        else:
            next_target._defused = True
            cbs.append(self._resume_cb)
            self._target = next_target


class _MultiEvent(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev._state == _PROCESSED:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _results(self) -> dict:
        return {
            ev: ev._value
            for ev in self.events
            if ev._state == _PROCESSED
        }


class AllOf(_MultiEvent):
    """Fires when all child events have fired; value is {event: value}."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._results())


class AnyOf(_MultiEvent):
    """Fires when the first child event fires; value is {event: value}."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self.succeed(self._results())


class MacroStats:
    """Coalescing counters for macro (channel-burst) device events.

    Device layers that batch multiple page operations into one scheduled
    kernel event — NAND channel bursts, chunked bulk-scan DMA — report
    here: ``ops`` physical operations were carried by ``events`` scheduled
    timeouts across ``bursts`` burst calls.  ``coalesce_factor``
    (ops per scheduled event) is the macro-event payoff figure the kernel
    self-profiler surfaces.
    """

    __slots__ = ("ops", "events", "bursts")

    def __init__(self):
        self.ops = 0
        self.events = 0
        self.bursts = 0

    @property
    def coalesce_factor(self) -> float:
        return self.ops / self.events if self.events else 0.0

    def to_dict(self) -> dict:
        return {
            "ops": int(self.ops),
            "events": int(self.events),
            "bursts": int(self.bursts),
            "coalesce_factor": float(self.coalesce_factor),
        }


_EXHAUSTED = iter(())


class Probes:
    """The stack's one instrumentation surface (``env.probes``).

    One attribute per probe verb.  On the class every verb is a method that
    does nothing; the plane that consumes a verb claims it in its
    ``install()`` by assigning its own bound method to the instance
    attribute of that name, which shadows the class's — ``touch``/``at``:
    fault registry and journal (both install
    ``repro.faults.registry.touch``/``fault_point`` bound to the env, which
    serve either plane alone); ``begin``/``end``/``instant``: tracer;
    ``add``: telemetry hub; ``enter``/``leave``/``op_begin``/``op_end``:
    lineage profiler.  Nothing here forwards to a plane.  Sites pass
    arguments positionally and look the verb up at each visit
    (``p = env.probes`` per function, never a cached verb), so a plane
    installed after the stack is built is seen by the next visit.

    The do-nothing verbs live on the class, not in ``__slots__``, because
    CPython 3.11 specialises ``p.verb(...)`` only for a method found on the
    type: an unclaimed verb then costs about half of a call through a slot
    (27 against 52 ns in a loop, 11 for the ``is not None`` test it replaced).
    """

    def _nothing(self, _a=None, _b=None, _c=None, _d=None):
        """An unclaimed verb.  Four positional parameters cover the
        longest, ``begin(cat, name, actor, args)``."""
        return None

    touch = begin = end = instant = add = _nothing
    enter = leave = op_begin = op_end = _nothing

    def at(self, site):
        """The unclaimed ``at``: ``action = yield from p.at(site)`` delegates
        to an exhausted iterator, which ends at once with value None — no
        generator is created."""
        return _EXHAUSTED


# Upper bound on recycled instances kept per freelist per Environment.
# Sized to cover every concurrently-pending hot event in real experiments
# (drivers + samplers + pollers is tens, not hundreds) while bounding idle
# memory.
_TIMEOUT_POOL_CAP = 256


class Environment:
    """The simulation clock and event queue."""

    # Kernel-hot attributes live in slots (faster loads/stores on the
    # per-event path); __dict__ stays available for extension layers that
    # hang state off the env (faults, tracer, telemetry, ...).
    __slots__ = ("_now", "_queue", "_seq", "_timeout_pool", "_event_pool",
                 "_presume_pool", "_active_process", "_observer", "probes",
                 "__dict__")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue = EventQueue()
        self._seq = 0
        self._timeout_pool: list[Timeout] = []
        self._event_pool: list[Event] = []
        self._presume_pool: list[_ProcessResume] = []
        self._active_process: Optional[Process] = None
        # The dispatch loop's one per-event hook: None, the single
        # installed observer, or a fan-out over ``_observers``.
        self._observer: Optional[Callable[[float, Event], None]] = None
        self._observers: list = []
        # The five planes an extension layer may install: the fault
        # registry, tracer, telemetry hub, lineage profiler and journal.
        # Each attribute is None until its plane's ``install()`` sets it and
        # is read by the plane's *owners* (bench runner, fault harness,
        # collectors, tests).  The stack never tests them: every site calls
        # its verb on ``probes``, which the installed planes claim.  The
        # four observers are passive (they never yield or schedule), so
        # observed trajectories are bit-identical; only the registry acts.
        self.faults = None
        self.tracer = None
        self.telemetry = None
        self.lineage = None
        self.journal = None
        self.probes = Probes()
        # Optional KernelProfile (resource probes count into it); watches
        # the dispatch loop as an observer, as the journal does.
        self.kernel_profiler = None
        # Macro-event coalescing counters (always on: three int adds per
        # burst, no per-op cost).
        self.macro = MacroStats()

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled on this environment.

        Every scheduled event is eventually processed when ``run()`` drains
        the queue, so this doubles as the processed-event count for
        events/sec reporting (``repro.perf``, bench baselines) and is
        stable across kernel-internal changes like event pooling.
        """
        return self._seq

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: bool = False) -> None:
        self._seq += 1
        q = self._queue
        if delay == 0.0 and not priority:
            # Fires at exactly the current time: now lane (process
            # boot/finish, fail, immediate resumes).  See Event.succeed.
            nowq = q._nowq
            nowq.append((self._now, 1, self._seq, event))
            if q._nptr > _COMPACT_PTR:
                del nowq[:q._nptr]
                q._nptr = 0
            return
        # priority events (interrupts) sort before same-time ordinary
        # events; the (time, priority, seq) key ranks them ahead of the
        # now lane's priority-1 entries at dequeue.
        heappush(q._heap,
                 (self._now + delay, 0 if priority else 1, self._seq, event))

    def schedule_at(self, event: Event, when: float) -> None:
        """Schedule a pre-built pending event to fire at absolute time."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        if event._state != _PENDING:
            raise SimulationError("event already triggered")
        event._ok = True
        event._state = _TRIGGERED
        self._seq += 1
        heappush(self._queue._heap, (when, 1, self._seq, event))

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        """Create (or recycle) a bare :class:`Event`.

        Recycled instances are reset at recycle time (see the dispatch
        loop) and only ever enter the freelist when nothing else
        references them, so reuse is indistinguishable from construction.
        """
        pool = self._event_pool
        if pool:
            return pool.pop()
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create (or recycle) a :class:`Timeout` firing ``delay`` from now.

        Recycled instances behave identically to fresh ones: the freelist
        only ever holds processed Timeouts that nothing else references
        (checked by refcount in :meth:`run`), and scheduling order is
        governed purely by the (time, priority, seq) key, so pooling
        cannot perturb the determinism contract.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay: {delay!r}")
            ev = pool.pop()
            ev.delay = delay
            ev._value = value
            # Neither _ok nor _defused is reset: a Timeout can never fail,
            # so _ok stays True for the object's whole lifetime and
            # _defused is never consulted (the failure re-raise is the
            # only reader and requires _ok False).
            ev._state = _TRIGGERED
            seq = self._seq + 1
            self._seq = seq
            heappush(self._queue._heap, (self._now + delay, 1, seq, ev))
            return ev
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution ----------------------------------------------------------
    def _recycle(self, event: Event) -> None:
        """Return a processed hot-class event to its freelist when nothing
        else references it (cold-path mirror of the inline recycle block
        in :meth:`run`)."""
        # Refcount 3 == caller's local + our parameter + getrefcount's
        # argument: nothing outside this call chain references the event.
        cls = type(event)
        if cls is Timeout:
            pool = self._timeout_pool
        elif cls is Event:
            pool = self._event_pool
        elif cls is _ProcessResume:
            pool = self._presume_pool
        else:
            return
        if len(pool) < _TIMEOUT_POOL_CAP and sys.getrefcount(event) == 3:
            if cls is not Timeout:      # a Timeout is re-armed by timeout()
                event._value = None
                event._state = _PENDING
                event._ok = True
                event._defused = False
            pool.append(event)

    # -- observers -----------------------------------------------------------
    def add_observer(self, observe: Callable[[float, Event], None]) -> None:
        """Have ``observe(when, event)`` called for every event, after it
        is popped and the clock set, before it is dispatched.

        Observers are passive (they must not schedule, trigger or retain
        events), so an observed run follows the bit-identical trajectory.
        ``run`` reads the slot once on entry.
        """
        self._set_observers(self._observers + [observe])

    def remove_observer(self, observe: Callable[[float, Event], None]) -> None:
        self._set_observers([o for o in self._observers if o != observe])

    def _set_observers(self, observers: list) -> None:
        self._observers = observers
        if len(observers) > 1:
            def fan_out(when: float, event: Event) -> None:
                for observe in observers:
                    observe(when, event)
            self._observer = fan_out
        else:
            self._observer = observers[0] if observers else None

    def step(self) -> None:
        """Process the single next event.

        The cold reference dispatch (``Event._run_callbacks`` →
        ``Process._resume``, then :meth:`_recycle`): :meth:`run` inlines
        exactly this, and ``tests/sim/test_lockstep.py`` holds the two to
        the same event stream.
        """
        q = self._queue
        if not len(q):
            raise SimulationError("no more events")
        when, _prio, _seq, event = q.pop()
        self._now = when
        observe = self._observer
        if observe is not None:
            observe(when, event)
        event._run_callbacks()
        self._recycle(event)

    def peek(self) -> float:
        """Time of the next event, or +inf if the queue is empty."""
        return self._queue.peek_time()

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be a timestamp or an Event; with an Event, returns its
        value once it fires (at once if it already has).

        This is the kernel's one dispatch loop.  Experiment cells drive it
        as ``run(until=proc)`` (``bench/runner.py``), the kernel
        microbenchmarks as a plain drain, the samplers' last-bucket flush
        as a deadline; each mode costs one cheap check per event (a stop
        flag, a comparison that is false for every finite time without a
        deadline) beside the observer slot's.  The body inlines
        :meth:`step` and must stay semantically in lockstep with it: the
        dequeue reads the EventQueue's two lists directly (they are only
        ever mutated in place), the fast-slot waiter is resumed without
        the ``Process._resume`` frame, dead hot-class events that nothing
        else references are recycled.  Determinism (same-timestamp order,
        interrupt priority) lives entirely in the ``(time, priority,
        seq)`` entry key.
        """
        deadline = _INF
        # A stop event appends itself here when it is processed: one
        # sentinel callback, so the loop tests a local list's truth value
        # instead of re-reading until._state every iteration.
        stopped: list = []
        if isinstance(until, Event):
            if until._state == _PROCESSED:
                stopped.append(until)
            else:
                until.callbacks.append(stopped.append)
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(f"until {deadline} is in the past (now={self._now})")

        # Per-step lookups hoisted out of the loop.
        q = self._queue
        heap = q._heap
        nowq = q._nowq
        pop = heappop
        observe = self._observer
        pool = self._timeout_pool
        epool = self._event_pool
        ppool = self._presume_pool
        pool_cap = _TIMEOUT_POOL_CAP
        getrefcount = sys.getrefcount
        PENDING = _PENDING
        PROCESSED = _PROCESSED
        timeout_cls = Timeout
        event_cls = Event
        presume_cls = _ProcessResume

        # Events are unpacked straight out of the lane/heap (no entry
        # local survives dispatch): a live entry tuple would hold a hidden
        # reference and silently defeat every refcount-gated freelist.
        # The dequeue head picks min(now-lane head, heap head) with at
        # most one tuple comparison; when only one side is occupied
        # (signalling or timer steady state) there is none.
        # ``while True`` + break, not ``while not stopped``: CPython 3.11
        # warms a code object up for specialisation on calls and on
        # *unconditional* backward jumps only, so a loop entered once
        # with a conditional back edge runs unspecialised throughout
        # (timeout_chain: 0.9M instead of 1.4M events/s).
        while True:
            if stopped:
                break
            nptr = q._nptr
            if nptr < len(nowq) and not (heap and heap[0] < nowq[nptr]):
                when, _prio, _seq, event = nowq[nptr]
                # SimPy semantics: the deadline is exclusive — events
                # scheduled exactly at `until` are left unprocessed.
                # Without a deadline only +inf times reach the second test.
                if when >= deadline and deadline != _INF:
                    break
                nowq[nptr] = None
                q._nptr = nptr + 1
            elif heap:
                when, _prio, _seq, event = pop(heap)
                if when >= deadline and deadline != _INF:
                    # Put it back: once per run, cheaper than peeking at
                    # heap[0][0] before every pop.
                    heappush(heap, (when, _prio, _seq, event))
                    break
            else:
                break
            self._now = when
            if observe is not None:
                observe(when, event)
            proc = event._proc
            if proc is not None:
                # Inline Process._resume for the fast-slot waiter — keep
                # the two in lockstep.
                event._state = PROCESSED
                event._proc = None
                if proc._state == PENDING:
                    self._active_process = proc
                    try:
                        if event._ok:
                            nt = proc._send(event._value)
                        else:
                            nt = proc._generator.throw(event._value)
                    except StopIteration as stop:
                        self._active_process = None
                        proc._finish(True, stop.value)
                    except BaseException as exc:
                        self._active_process = None
                        proc._finish(False, exc)
                    else:
                        self._active_process = None
                        try:
                            nstate = nt._state
                            ncbs = nt.callbacks
                        except AttributeError:
                            raise SimulationError(
                                f"process {proc.name!r} yielded "
                                f"{nt!r}, expected an Event"
                            ) from None
                        if nstate == PROCESSED:
                            proc._resume_processed(nt)
                        elif nt._proc is None and not ncbs:
                            if type(nt) is not timeout_cls:
                                nt._defused = True
                            nt._proc = proc
                            proc._target = nt
                        else:
                            nt._defused = True
                            ncbs.append(proc._resume_cb)
                            proc._target = nt
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
                # No failure check: fast-slot registration defuses
                # every failable event class up front.
            else:
                event._state = PROCESSED
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
                if not event._ok and not event._defused:
                    # Nobody handled the failure: surface it.
                    raise event._value
            cls = type(event)
            if cls is timeout_cls:
                if (len(pool) < pool_cap
                        and getrefcount(event) == 2):  # local + arg only
                    pool.append(event)
            elif cls is event_cls or cls is presume_cls:
                rpool = epool if cls is event_cls else ppool
                if len(rpool) < pool_cap and getrefcount(event) == 2:
                    event._value = None
                    event._state = PENDING
                    event._ok = True
                    event._defused = False
                    rpool.append(event)

        if isinstance(until, Event):
            if not stopped:
                raise SimulationError("run(until=event): event never fired")
            if not until._ok:
                raise until._value
            return until._value
        if deadline != _INF and self._now < deadline:
            self._now = deadline
        return None


class KernelProfile:
    """Wall-clock self-profile of one Environment's event loop.

    An observer of the dispatch loop (:meth:`Environment.add_observer`),
    attached by :func:`install_kernel_profiler`.  All counters are exact
    except the wall-ns-per-class figures, which sample one event in
    ``sample_every`` (timing every dispatch would perturb the very loop
    being measured) as the wall time from that event's notification to
    the next one's; :meth:`to_dict` scales the samples back up to
    estimated totals.

    Everything here is wall-clock instrumentation — the simulated
    trajectory of a profiled run is bit-identical to an unprofiled one.
    ``to_dict`` additionally snapshots the pending-event population (now,
    and its peak over the profiled events) and the macro-event coalescing
    counters.
    """

    def __init__(self, env: Environment, sample_every: int = 16):
        self._env = env
        self._seq0 = env._seq
        self.sample_every = max(1, int(sample_every))
        self.events_by_class: dict[str, int] = {}
        self.resumes_by_process: dict[str, int] = {}
        self.sampled_wall_ns_by_class: dict[str, int] = {}
        self.sampled_events_by_class: dict[str, int] = {}
        self.heap_pops = 0
        self.peak_pending = 0
        self.timeout_requests = 0
        self.timeout_pool_hits = 0
        self.resource_requests = 0
        self.resource_grants = 0
        self.resource_queued = 0
        self.wall_ns = 0
        self._sample_cls: Optional[str] = None    # event class being timed
        self._sample_t0 = 0

    @property
    def heap_pushes(self) -> int:
        """Every ``_seq`` increment pairs with exactly one queue push (in
        ``_schedule``, ``schedule_at``, ``timeout()``, ``succeed()`` and
        ``Timeout.__init__``), so the push count is the ``_seq`` delta."""
        return self._env._seq - self._seq0

    @property
    def timeout_pool_hit_rate(self) -> float:
        if self.timeout_requests == 0:
            return 0.0
        return self.timeout_pool_hits / self.timeout_requests

    def observe(self, when: float, event: Event) -> None:
        """Count one event about to be dispatched (the loop's observer)."""
        if self._sample_cls is not None:
            self._end_sample()
        self.heap_pops += 1
        cls = type(event).__name__
        by_class = self.events_by_class
        by_class[cls] = by_class.get(cls, 0) + 1
        resumes = self.resumes_by_process
        proc = event._proc
        if proc is not None:
            resumes[proc.name] = resumes.get(proc.name, 0) + 1
        for cb in event.callbacks:
            # Further process waiters queue behind the fast slot.
            owner = getattr(cb, "__self__", None)
            if type(owner) is Process:
                resumes[owner.name] = resumes.get(owner.name, 0) + 1
        pending = len(self._env._queue) + 1         # + the one in hand
        if pending > self.peak_pending:
            self.peak_pending = pending
        if self.heap_pops % self.sample_every == 0:
            self._sample_cls = cls
            self._sample_t0 = perf_counter_ns()

    def _end_sample(self) -> None:
        dt = perf_counter_ns() - self._sample_t0
        cls = self._sample_cls
        self._sample_cls = None
        ns, n = self.sampled_wall_ns_by_class, self.sampled_events_by_class
        ns[cls] = ns.get(cls, 0) + dt
        n[cls] = n.get(cls, 0) + 1

    def estimated_wall_ns_by_class(self) -> dict[str, float]:
        """Scale the sampled per-class wall time up to estimated totals."""
        out: dict[str, float] = {}
        for cls, total in self.events_by_class.items():
            n = self.sampled_events_by_class.get(cls, 0)
            if n:
                out[cls] = self.sampled_wall_ns_by_class[cls] / n * total
        return out

    def to_dict(self) -> dict:
        q = self._env._queue
        return {
            "heap_pushes": int(self.heap_pushes),
            "heap_pops": int(self.heap_pops),
            "events_by_class": dict(self.events_by_class),
            "resumes_by_process": dict(self.resumes_by_process),
            "timeout_requests": int(self.timeout_requests),
            "timeout_pool_hits": int(self.timeout_pool_hits),
            "timeout_pool_hit_rate": float(self.timeout_pool_hit_rate),
            "resource_requests": int(self.resource_requests),
            "resource_grants": int(self.resource_grants),
            "resource_queued": int(self.resource_queued),
            "sample_every": int(self.sample_every),
            "sampled_events_by_class": dict(self.sampled_events_by_class),
            "wall_ns": int(self.wall_ns),
            "estimated_wall_ns_by_class": {
                k: float(v)
                for k, v in self.estimated_wall_ns_by_class().items()},
            "queue": {
                "pending": len(q),
                "now_pending": len(q._nowq) - q._nptr,
                "peak_pending": max(self.peak_pending, len(q)),
            },
            "macro": self._env.macro.to_dict(),
        }


def install_kernel_profiler(env: Environment,
                            sample_every: int = 16) -> KernelProfile:
    """Attach a :class:`KernelProfile` to ``env`` as a loop observer.

    ``env.timeout`` and ``env.run`` are shadowed with counting / timing
    wrappers (instance dict shadows the class method) so pool hit rate
    and wall time inside ``run`` are measured without touching the class;
    :func:`uninstall_kernel_profiler` restores them.
    """
    if env.kernel_profiler is not None:
        raise SimulationError("kernel profiler already installed")
    prof = env.kernel_profiler = KernelProfile(env, sample_every)
    env.add_observer(prof.observe)
    orig_timeout = env.timeout
    orig_run = env.run

    def counting_timeout(delay: float, value: Any = None) -> Timeout:
        prof.timeout_requests += 1
        if env._timeout_pool:
            prof.timeout_pool_hits += 1
        return orig_timeout(delay, value)

    def timed_run(until: Optional[float | Event] = None) -> Any:
        t0 = perf_counter_ns()
        try:
            return orig_run(until)
        finally:
            if prof._sample_cls is not None:
                prof._end_sample()
            prof.wall_ns += perf_counter_ns() - t0

    env.timeout = counting_timeout
    env.run = timed_run
    return prof


def uninstall_kernel_profiler(env: Environment) -> Optional[KernelProfile]:
    """Detach the profiler and restore the un-shadowed methods."""
    prof = env.kernel_profiler
    env.kernel_profiler = None
    if prof is not None:
        env.remove_observer(prof.observe)
    env.__dict__.pop("timeout", None)
    env.__dict__.pop("run", None)
    return prof
