"""Performance harness: kernel microbenchmarks and kernel self-profiles.

An unguarded secondary signal.  The perf gate of record is
``benchmarks/e2e`` (end to end, host-normalised, model-change aware);
this package isolates the DES kernel underneath it:

* **events/sec** microbenchmarks over the dominant event patterns
  (Timeout churn, event signalling, process spawn, resource handoff,
  channel bursts) — ``python -m repro.perf`` prints the table;
* ``python -m repro.perf profile <bench|mini|paper-smoke>`` — the kernel
  self-profiler over a microbenchmark or a real experiment cell.

Raw events/sec depends on the host, so nothing here passes or fails a
change: compare two checkouts on one host, alternating runs.

All benchmarks are *simulated-workload* benchmarks: they drive the real
:class:`~repro.sim.Environment`, so any kernel change shows up here first.
Event counts come from ``Environment.events_scheduled`` (every scheduled
event is processed when ``run()`` drains), which makes events/sec
comparable across kernel versions regardless of internal pooling.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..sim import Environment, Resource, install_kernel_profiler

__all__ = [
    "KERNEL_BENCHES", "BenchResult",
    "bench_timeout_chain", "bench_event_ping_pong", "bench_process_spawn",
    "bench_resource_handoff", "bench_macro_burst",
    "run_kernel_benches",
    "profile_kernel_bench", "profile_mini_cell", "profile_smoke_cell",
    "format_kernel_profile",
]


class BenchResult:
    """One microbenchmark measurement."""

    __slots__ = ("name", "events", "wall_s", "events_per_sec", "profile")

    def __init__(self, name: str, events: int, wall_s: float, profile=None):
        self.name = name
        self.events = events
        self.wall_s = wall_s
        self.events_per_sec = events / wall_s if wall_s > 0 else 0.0
        self.profile = profile          # KernelProfile dict when profiled


def _timed(name: str, build: Callable[[], Environment],
           profile: bool = False) -> BenchResult:
    """Build a populated Environment, drain it, count scheduled events."""
    env = build()
    prof = install_kernel_profiler(env) if profile else None
    pre = env.events_scheduled
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    return BenchResult(name, env.events_scheduled - pre, wall,
                       profile=prof.to_dict() if prof is not None else None)


def bench_timeout_chain(procs: int = 64, iters: int = 4000,
                        profile: bool = False) -> BenchResult:
    """The dominant pattern: N processes looping ``yield env.timeout(d)``.

    This is what every driver, sampler, flush poll, and detector period in
    the reproduction does, so Timeout allocation + heap churn dominates
    real experiment wall time.
    """
    def build() -> Environment:
        env = Environment()

        def looper(delay: float):
            for _ in range(iters):
                yield env.timeout(delay)

        for i in range(procs):
            env.process(looper(1.0 + i * 1e-6), name=f"loop{i}")
        return env

    return _timed("timeout_chain", build, profile=profile)


def bench_event_ping_pong(pairs: int = 32, rounds: int = 4000,
                          profile: bool = False) -> BenchResult:
    """Two processes per pair signalling each other through bare Events.

    Exercises Event.succeed, callback dispatch, and the already-processed
    target resume path (WAL group commit and Store handoffs look like
    this).
    """
    def build() -> Environment:
        env = Environment()

        def ping(ev_in, ev_out):
            for _ in range(rounds):
                yield ev_in[0]
                ev_in[0] = env.event()
                ev_out[0].succeed()

        def pong(ev_in, ev_out):
            for _ in range(rounds):
                ev_out[0].succeed()
                yield ev_in[0]
                ev_in[0] = env.event()

        for i in range(pairs):
            a, b = [env.event()], [env.event()]
            env.process(ping(a, b), name=f"ping{i}")
            env.process(pong(b, a), name=f"pong{i}")
        return env

    return _timed("event_ping_pong", build, profile=profile)


def bench_process_spawn(spawns: int = 30000,
                        profile: bool = False) -> BenchResult:
    """Spawn/termination churn: short-lived child processes joined by a
    parent (compaction jobs and fault-sweep runs look like this)."""
    def build() -> Environment:
        env = Environment()

        def child():
            yield env.timeout(0.5)
            return 1

        def parent():
            for _ in range(spawns):
                yield env.process(child())

        env.process(parent(), name="spawner")
        return env

    return _timed("process_spawn", build, profile=profile)


def bench_resource_handoff(workers: int = 16, rounds: int = 1500,
                           profile: bool = False) -> BenchResult:
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

    return _timed("resource_handoff", build, profile=profile)


def bench_macro_burst(rounds: int = 400, chunks: int = 64,
                      profile: bool = False) -> BenchResult:
    """Channel-burst DMA: macro events coalescing per-chunk transfers.

    Two concurrent scanners stream ``chunks`` fixed-size chunks per round
    through one :class:`~repro.device.pcie.BandwidthPipe` burst call, the
    shape of Dev-LSM bulk scans and compaction I/O.  With macro events the
    kernel schedules one timeout per MACRO_MAX-chunk group instead of one
    per chunk; events/sec here measures the whole pattern (grant + burst),
    so the coalescing win shows up directly.
    """
    from ..device.pcie import BandwidthPipe, TrafficLedger

    def build() -> Environment:
        env = Environment()
        pipe = BandwidthPipe(env, 4 * 1024 ** 3, name="pcie",
                             ledger=TrafficLedger(bucket=1.0))
        sizes = [512 * 1024] * chunks

        def scanner():
            for _ in range(rounds):
                yield from pipe.transfer_burst(sizes, direction="rx")

        env.process(scanner(), name="scan0")
        env.process(scanner(), name="scan1")
        return env

    return _timed("macro_burst", build, profile=profile)


KERNEL_BENCHES: dict[str, Callable[[], BenchResult]] = {
    "timeout_chain": bench_timeout_chain,
    "event_ping_pong": bench_event_ping_pong,
    "process_spawn": bench_process_spawn,
    "resource_handoff": bench_resource_handoff,
    "macro_burst": bench_macro_burst,
}


def run_kernel_benches(names: Optional[list] = None,
                       repeats: int = 3) -> dict:
    """Run the selected microbenchmarks; best-of-``repeats`` per bench.

    Best-of (not mean) because scheduling noise only ever slows a run
    down; the fastest repeat is the closest estimate of the kernel's
    actual cost.
    """
    out: dict[str, BenchResult] = {}
    for name in names or list(KERNEL_BENCHES):
        if name not in KERNEL_BENCHES:
            raise ValueError(f"unknown benchmark {name!r}; "
                             f"available: {sorted(KERNEL_BENCHES)}")
        best: Optional[BenchResult] = None
        for _ in range(max(1, repeats)):
            r = KERNEL_BENCHES[name]()
            if best is None or r.wall_s < best.wall_s:
                best = r
        out[name] = best
    return out


# -- kernel self-profiling (``python -m repro.perf profile``) ----------------

def profile_kernel_bench(name: str) -> BenchResult:
    """Run one microbenchmark with the kernel self-profiler installed.

    Single run, no best-of: the profiler's counters are deterministic per
    build, and its sampling overhead would only pollute a timing contest.
    The returned :class:`BenchResult` carries the profile dict in
    ``.profile``.
    """
    if name not in KERNEL_BENCHES:
        raise ValueError(f"unknown benchmark {name!r}; "
                         f"available: {sorted(KERNEL_BENCHES)}")
    return KERNEL_BENCHES[name](profile=True)


def profile_mini_cell(system: str = "kvaccel", workload: str = "A",
                      scale: int = 256) -> dict:
    """Profile one real experiment cell (the ``mini`` target).

    Runs a single cell through the real runner with the kernel
    self-profiler on and returns ``{"spec", "wall_s", "events",
    "profile"}`` — the profile in the same dict shape the
    microbenchmarks produce.
    """
    from ..bench.profiles import mini_profile
    from ..bench.runner import RunSpec, run_workload
    spec = RunSpec(system, workload, 1)
    t0 = time.perf_counter()
    result = run_workload(spec, mini_profile(scale), kernel_profile=True)
    wall = time.perf_counter() - t0
    return {
        "spec": f"{system}/{workload}",
        "wall_s": float(wall),
        "events": int(result.extra.get("events_processed", 0)),
        "profile": result.extra["kernel_profile"],
    }


def profile_smoke_cell(system: str = "kvaccel", workload: str = "A") -> dict:
    """Profile one cell under the ``paper-smoke`` profile.

    Same contract as :func:`profile_mini_cell`, but the cell runs the
    truncated ~10^6-op slice of the *unscaled* paper constants — the
    shape CI's perf job exercises so paper-capacity regressions (big
    memtables, deep queues, paper NAND latencies) surface without a
    600 s run.
    """
    from ..bench.profiles import paper_smoke_profile
    from ..bench.runner import RunSpec, run_workload
    spec = RunSpec(system, workload, 1)
    t0 = time.perf_counter()
    result = run_workload(spec, paper_smoke_profile(), kernel_profile=True)
    wall = time.perf_counter() - t0
    return {
        "spec": f"{system}/{workload} (paper-smoke)",
        "wall_s": float(wall),
        "events": int(result.extra.get("events_processed", 0)),
        "profile": result.extra["kernel_profile"],
    }


def format_kernel_profile(prof: dict, top: int = 12) -> str:
    """The sorted hot-site table for one kernel profile dict.

    Event classes sorted by estimated wall-ns (from the coarse
    ``sample_every`` timing), then process resume counts, then the heap /
    timeout-pool / resource counters and the pending-event population.
    """
    lines = []
    est = prof.get("estimated_wall_ns_by_class", {})
    by_class = prof.get("events_by_class", {})
    total_ns = sum(est.values()) or 1.0
    lines.append(f"  {'event class':20s} {'events':>10s} "
                 f"{'est wall ms':>12s} {'share':>7s}")
    ranked = sorted(by_class.items(),
                    key=lambda kv: (-est.get(kv[0], 0.0), kv[0]))
    for cls, n in ranked[:top]:
        ns = est.get(cls, 0.0)
        lines.append(f"  {cls:20s} {n:>10,d} {ns / 1e6:>12.2f} "
                     f"{ns / total_ns:>6.1%}")
    resumes = prof.get("resumes_by_process", {})
    if resumes:
        lines.append(f"\n  {'process (resumes)':34s} {'count':>10s}")
        hot = sorted(resumes.items(), key=lambda kv: (-kv[1], kv[0]))
        for pname, n in hot[:top]:
            lines.append(f"  {pname:34s} {n:>10,d}")
        if len(hot) > top:
            rest = sum(n for _, n in hot[top:])
            lines.append(f"  {'... %d more' % (len(hot) - top):34s} "
                         f"{rest:>10,d}")
    lines.append("")
    lines.append(f"  heap pushes/pops     {prof.get('heap_pushes', 0):>10,d} "
                 f"/ {prof.get('heap_pops', 0):,d}")
    treq = prof.get("timeout_requests", 0)
    lines.append(f"  timeout pool         {prof.get('timeout_pool_hits', 0):>10,d} "
                 f"hits / {treq:,d} requests "
                 f"({prof.get('timeout_pool_hit_rate', 0.0):.1%} hit rate)")
    rreq = prof.get("resource_requests", 0)
    if rreq:
        lines.append(f"  resource requests    {rreq:>10,d} "
                     f"({prof.get('resource_grants', 0):,d} granted, "
                     f"{prof.get('resource_queued', 0):,d} queued)")
    lines.append(f"  profiled wall        {prof.get('wall_ns', 0) / 1e6:>10.1f} ms "
                 f"(sampled 1/{prof.get('sample_every', 0)})")
    q = prof.get("queue") or {}
    if q:
        lines.append(f"  pending events       {q.get('pending', 0):>10,d} "
                     f"(now-lane {q.get('now_pending', 0):,d}), "
                     f"peak {q.get('peak_pending', 0):,d}")
    m = prof.get("macro") or {}
    # The coalesce line prints even with no bursts: "1.0x (no bursts)"
    # tells the reader macro events never engaged in this run.
    lines.append("")
    if m.get("events"):
        lines.append(f"  macro events         {m['events']:>10,d} carrying "
                     f"{m.get('ops', 0):,d} ops over {m.get('bursts', 0):,d} "
                     f"bursts — coalesce factor "
                     f"{m.get('coalesce_factor', 0.0):.1f}x")
    else:
        lines.append(f"  macro events         {0:>10,d} "
                     f"— coalesce factor 1.0x (no bursts)")
    return "\n".join(lines)
