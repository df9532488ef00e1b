"""DES kernel self-profiler: counters, install/uninstall, equivalence.

The profiler is an observer of ``Environment.run``'s dispatch loop (and of
``step()``), so the tests pin both the counter semantics and — critically
— that profiling never changes *what* the simulation computes, only
observes how it runs.
"""

import pytest

from repro.perf import (
    format_kernel_profile,
    profile_kernel_bench,
)
from repro.sim import (
    Environment,
    SimulationError,
    install_kernel_profiler,
    uninstall_kernel_profiler,
)


def _timeout_chain_env(procs=4, iters=100):
    env = Environment()

    def looper(delay):
        for _ in range(iters):
            yield env.timeout(delay)

    for i in range(procs):
        env.process(looper(1.0 + i * 1e-6), name=f"loop{i}")
    return env


def test_counters_on_timeout_chain():
    env = _timeout_chain_env()
    prof = install_kernel_profiler(env)
    env.run()
    d = prof.to_dict()
    assert d["heap_pops"] > 0
    assert d["heap_pushes"] > 0
    assert d["events_by_class"]["Timeout"] == 400
    assert d["timeout_requests"] == 400
    # The pool primes after the first Timeout per process; nearly every
    # later request must hit it.
    assert d["timeout_pool_hits"] > 0
    assert 0.9 <= d["timeout_pool_hit_rate"] <= 1.0
    assert d["wall_ns"] > 0
    assert sum(d["resumes_by_process"].values()) >= 400
    assert set(d["resumes_by_process"]) == {f"loop{i}" for i in range(4)}


def test_profiled_run_matches_unprofiled_trajectory():
    def trace(env):
        """Record (time, value) of every process completion."""
        out = []

        def worker(i):
            yield env.timeout(0.5 * (i + 1))
            with res.request() as req:
                yield req
                yield env.timeout(0.25)
            out.append((env.now, i))
            return i

        from repro.sim import Resource
        res = Resource(env, capacity=1)
        for i in range(5):
            env.process(worker(i), name=f"w{i}")
        env.run()
        return out

    plain_env = Environment()
    plain = trace(plain_env)
    prof_env = Environment()
    install_kernel_profiler(prof_env)
    profiled = trace(prof_env)
    assert profiled == plain
    assert prof_env.now == plain_env.now
    assert prof_env.events_scheduled == plain_env.events_scheduled


def test_resource_counters():
    env = Environment()
    from repro.sim import Resource
    res = Resource(env, capacity=1)
    prof = install_kernel_profiler(env)

    def worker():
        with res.request() as req:
            yield req
            yield env.timeout(1.0)

    for i in range(3):
        env.process(worker(), name=f"w{i}")
    env.run()
    d = prof.to_dict()
    assert d["resource_requests"] == 3
    assert d["resource_grants"] == 3
    assert d["resource_queued"] == 2      # two waited behind the holder


def test_queue_population_counters():
    env = _timeout_chain_env(procs=4, iters=10)
    prof = install_kernel_profiler(env)
    env.run(until=5.5)
    q = prof.to_dict()["queue"]
    assert set(q) == {"pending", "now_pending", "peak_pending"}
    assert q["pending"] == 4                     # one Timeout per looper
    assert q["now_pending"] == 0
    # All four boot events were pending when the first one dispatched.
    assert q["peak_pending"] == 4


def test_stepped_events_reach_the_same_observer():
    env = _timeout_chain_env(procs=2, iters=3)
    prof = install_kernel_profiler(env)
    while env.peek() != float("inf"):
        env.step()
    assert prof.heap_pops == env.events_scheduled
    assert prof.events_by_class["Timeout"] == 6


def test_install_uninstall_restores_methods():
    env = Environment()
    plain_timeout = env.timeout
    install_kernel_profiler(env)
    assert env.timeout is not plain_timeout      # counting wrapper on
    with pytest.raises(SimulationError):
        install_kernel_profiler(env)             # double install refused
    uninstall_kernel_profiler(env)
    assert env.kernel_profiler is None
    assert env._observer is None
    assert not {"timeout", "run"} & set(env.__dict__)   # methods restored


def test_profile_bench_entry_point_and_table():
    r = profile_kernel_bench("timeout_chain")
    assert r.profile is not None
    d = r.profile
    assert d["heap_pops"] > 0 and d["heap_pushes"] > 0
    assert d["timeout_pool_hits"] > 0            # the acceptance counters
    table = format_kernel_profile(d)
    assert "Timeout" in table
    assert "timeout pool" in table
    assert f"peak {d['queue']['peak_pending']:,d}" in table
    with pytest.raises(ValueError):
        profile_kernel_bench("no_such_bench")


def test_estimated_wall_scales_samples():
    env = _timeout_chain_env(procs=2, iters=500)
    prof = install_kernel_profiler(env, sample_every=8)
    env.run()
    d = prof.to_dict()
    est = d["estimated_wall_ns_by_class"]
    assert est.get("Timeout", 0) > 0
    # Estimate = sampled mean x total events; must be >= the raw sampled
    # time since only 1/8 of events were timed.
    assert est["Timeout"] >= prof.sampled_wall_ns_by_class["Timeout"]
    assert d["sampled_events_by_class"]["Timeout"] > 0
