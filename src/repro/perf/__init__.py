"""Performance harness: two kernel benchmarks and one cell's kernel counters.

An unguarded secondary signal.  The perf gate of record is
``benchmarks/e2e`` (end to end, host-normalised, model-change aware, with
its layer ledger for where the wall goes); this package keeps:

* :func:`bench_timeout_chain` and :func:`bench_resource_handoff`, the two
  DES-kernel event patterns the e2e drills size (``sim.*_events_per_s``);
* ``python -m repro.perf profile <mini|paper-smoke>`` — one real
  experiment cell with its events, wall, peak RSS and the seven kernel
  counters of ``extra["kernel_profile"]``.

Raw events/sec depends on the host, so nothing here passes or fails a
change: compare two checkouts on one host, alternating runs.

The benchmarks drive the real :class:`~repro.sim.Environment`; their event
counts come from ``Environment.events_scheduled`` (every scheduled event
is processed when ``run()`` drains).  They run with the cyclic garbage
collector on, as the kernel does outside ``repro.bench.run_workload``.
"""

from __future__ import annotations

import resource
import time
from typing import Callable

from ..sim import Environment, Resource

__all__ = [
    "BenchResult",
    "bench_timeout_chain", "bench_resource_handoff",
    "profile_cell", "format_kernel_profile",
]


class BenchResult:
    """One microbenchmark measurement."""

    __slots__ = ("name", "events", "wall_s", "events_per_sec")

    def __init__(self, name: str, events: int, wall_s: float):
        self.name = name
        self.events = events
        self.wall_s = wall_s
        self.events_per_sec = events / wall_s if wall_s > 0 else 0.0


def _timed(name: str, build: Callable[[], Environment]) -> BenchResult:
    """Build a populated Environment, drain it, count scheduled events."""
    env = build()
    pre = env.events_scheduled
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    return BenchResult(name, env.events_scheduled - pre, wall)


def bench_timeout_chain(procs: int = 64, iters: int = 4000) -> BenchResult:
    """The dominant pattern: N processes looping ``yield env.timeout(d)``.

    This is what every driver, sampler, flush poll, and detector period in
    the reproduction does.
    """
    def build() -> Environment:
        env = Environment()

        def looper(delay: float):
            for _ in range(iters):
                yield env.timeout(delay)

        for i in range(procs):
            env.process(looper(1.0 + i * 1e-6), name=f"loop{i}")
        return env

    return _timed("timeout_chain", build)


def bench_resource_handoff(workers: int = 16,
                           rounds: int = 1500) -> BenchResult:
    """FIFO Resource contention (thread pools, NAND channels)."""
    def build() -> Environment:
        env = Environment()
        res = Resource(env, capacity=2)

        def worker():
            for _ in range(rounds):
                with res.request() as req:
                    yield req
                    yield env.timeout(0.01)

        for i in range(workers):
            env.process(worker(), name=f"worker{i}")
        return env

    return _timed("resource_handoff", build)


def profile_cell(profile_name: str) -> dict:
    """Run one real experiment cell: kvaccel on workload A under the named
    profile (``mini256``, or ``paper-smoke`` — the truncated slice of the
    *unscaled* paper constants, which surfaces paper-capacity regressions
    without a 600 s run).

    Returns ``{"spec", "wall_s", "events", "peak_rss_mb", "profile"}``,
    the profile being the cell's ``extra["kernel_profile"]``.
    ``peak_rss_mb`` is the process's ``ru_maxrss`` after the cell: the
    cell's own peak unless something earlier in the process used more.
    """
    from ..bench.profiles import get_profile
    from ..bench.runner import RunSpec, run_workload
    spec = RunSpec("kvaccel", "A", 1)
    t0 = time.perf_counter()
    result = run_workload(spec, get_profile(profile_name),
                          kernel_profile=True)
    wall = time.perf_counter() - t0
    return {
        "spec": f"kvaccel/A ({profile_name})",
        "wall_s": float(wall),
        "events": int(result.extra.get("events_processed", 0)),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "profile": result.extra["kernel_profile"],
    }


def format_kernel_profile(prof: dict) -> str:
    """The seven kernel counters of one ``extra["kernel_profile"]``."""
    m = prof["macro"]
    return "\n".join([
        f"  heap pushes/pops     {prof['heap_pushes']:>10,d} "
        f"/ {prof['heap_pops']:,d}",
        f"  resource requests    {prof['resource_requests']:>10,d} "
        f"({prof['resource_queued']:,d} queued)",
        f"  wall inside run      {prof['wall_ns'] / 1e6:>10.1f} ms",
        f"  macro events         {m['events']:>10,d} carrying "
        f"{m['ops']:,d} ops over {m['bursts']:,d} bursts — coalesce "
        f"factor {m['coalesce_factor']:.1f}x",
        f"  timeout pool hits    {prof['timeout_pool_hit_rate']:>10.1%}",
    ])
