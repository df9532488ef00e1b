"""The kernel leaves no reference cycles behind.

``repro.bench.run_workload`` runs each cell with the cyclic garbage
collector paused.  That is only safe while everything a running world
drops — finished processes, their resume events, released resource
requests — is freed by reference counting.  These tests hold that
contract: on the kernel's own shapes and on one cell of every system and
workload shape the benchmarks run, ``gc.collect()`` must find nothing.

Each count is taken while the world is still referenced, so it counts
only garbage; a dropped Environment is itself cyclic (its freelists hold
events that point back at it) and is left to the collector.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.bench import RunSpec, run_workload
from repro.bench import runner
from repro.bench.profiles import mini_profile
from repro.sim import Environment, PriorityResource, Resource


def _collect_dropped_worlds() -> None:
    """Free the worlds earlier tests dropped.  The first pass runs the
    finalizers of their suspended generators, which resurrects such a
    world (and counts 0); the second frees it."""
    gc.collect()
    gc.collect()


def _drained_garbage(build) -> int:
    """Build a world, drain it with the collector paused, and return what
    ``gc.collect()`` then finds while the world is still referenced."""
    _collect_dropped_worlds()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        env = build()
        env.run()
        found = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    return found


def _process_spawn() -> Environment:
    # repro.perf's process_spawn world: short children joined one by one.
    env = Environment()

    def child():
        yield env.timeout(0.5)
        return 1

    def parent():
        for _ in range(200):
            yield env.process(child())

    env.process(parent(), name="spawner")
    return env


def _all_of_join() -> Environment:
    # Fan-out/join, the shape of compaction workers and cluster batches.
    env = Environment()

    def child(i):
        yield env.timeout(0.1 * (i + 1))
        return i

    def parent():
        for _ in range(50):
            yield env.all_of([env.process(child(i)) for i in range(4)])

    env.process(parent(), name="joiner")
    return env


def _resource_handoff() -> Environment:
    # repro.perf's resource_handoff world: FIFO contention, capacity 2.
    env = Environment()
    res = Resource(env, capacity=2)

    def worker():
        for _ in range(50):
            with res.request() as req:
                yield req
                yield env.timeout(0.01)

    for i in range(8):
        env.process(worker(), name=f"worker{i}")
    return env


def _priority_handoff() -> Environment:
    env = Environment()
    res = PriorityResource(env, capacity=1)

    def worker(prio):
        for _ in range(50):
            with res.request(priority=prio) as req:
                yield req
                yield env.timeout(0.01)

    for i in range(6):
        env.process(worker(i % 3), name=f"worker{i}")
    return env


@pytest.mark.parametrize("build", [_process_spawn, _all_of_join,
                                   _resource_handoff, _priority_handoff],
                         ids=["process_spawn", "all_of", "resource",
                              "priority_resource"])
def test_kernel_shapes_leave_no_cyclic_garbage(build):
    assert _drained_garbage(build) == 0


@pytest.fixture(scope="module")
def small_profile():
    return dataclasses.replace(mini_profile(512), duration=0.2,
                               seekrandom_fill_bytes=2 * 1024 * 1024)


@pytest.mark.parametrize("spec", [
    RunSpec("kvaccel", "A", rollback="eager"),
    RunSpec("kvaccel", "C", rollback="lazy"),
    RunSpec("rocksdb", "A"),
    RunSpec("kvaccel", "D", rollback="eager"),
    RunSpec("cluster", "A", rollback="eager", shards=2),
], ids=lambda s: f"{s.display}/{s.workload}")
def test_cells_leave_no_cyclic_garbage(spec, small_profile):
    # Collected at every telemetry bucket, mid-run: the world is still
    # reachable, so any count is garbage the cell made.
    found = []
    _collect_dropped_worlds()
    run_workload(spec, small_profile,
                 sample_callback=lambda t, s: found.append(gc.collect()))
    assert found
    assert set(found) == {0}


@pytest.mark.parametrize("enabled", [True, False])
def test_run_workload_restores_collector_state(enabled, small_profile):
    was_enabled = gc.isenabled()
    seen = []
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        run_workload(RunSpec("rocksdb", "A", duration=0.02), small_profile,
                     sample_callback=lambda t, s: seen.append(gc.isenabled()))
        assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
    assert seen and not any(seen)


def test_run_workload_restores_collector_on_error(small_profile, monkeypatch):
    def boom(*args):
        assert not gc.isenabled()
        raise RuntimeError("cell failed")

    monkeypatch.setattr(runner, "build_system", boom)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="cell failed"):
        run_workload(RunSpec("rocksdb", "A"), small_profile)
    assert gc.isenabled()
