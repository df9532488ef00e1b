"""A cell's kernel counters (``run_workload(kernel_profile=True)``).

The seven keys of ``extra["kernel_profile"]`` come from counts the kernel
keeps anyway: the ``_seq`` counter (one per queue push), the pending
queue, two resource counts on the Environment and the macro-event stats.
Nothing observes the dispatch loop for them, so the tests pin the counts
against an observer that does (the journal) and against the values the
dispatch-loop profiler they replace reported.
"""

from repro.bench import RunSpec, mini_profile, run_workload
from repro.bench.runner import kernel_counters
from repro.obs import Journal
from repro.sim import Environment, PriorityResource, Resource

KEYS = {"heap_pushes", "heap_pops", "wall_ns", "resource_requests",
        "resource_queued", "macro", "timeout_pool_hit_rate"}


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
    env.run()
    d = kernel_counters(env, 5)
    assert set(d) == KEYS
    # Per looper: its boot, 100 timeouts and its finish.
    assert d["heap_pushes"] == d["heap_pops"] == 4 * 102
    assert d["wall_ns"] == 5
    assert d["resource_requests"] == d["resource_queued"] == 0
    assert d["macro"] == {"ops": 0, "events": 0, "bursts": 0,
                          "coalesce_factor": 0.0}
    assert d["timeout_pool_hit_rate"] == 0.0


def test_queue_population_counters():
    # A deadline leaves one Timeout per looper queued: pushed, not popped.
    env = _timeout_chain_env(procs=4, iters=10)
    journal = Journal().install(env)
    env.run(until=5.5)
    d = kernel_counters(env, 0)
    assert len(env._queue) == 4
    assert d["heap_pops"] == d["heap_pushes"] - 4 == journal.event_count


def test_stepped_events_reach_the_same_observer():
    stepped, ran = _timeout_chain_env(2, 3), _timeout_chain_env(2, 3)
    js, jr = Journal().install(stepped), Journal().install(ran)
    while stepped.peek() != float("inf"):
        stepped.step()
    ran.run()
    assert js.event_count == stepped.events_scheduled == 2 * 5
    assert list(js.records) == list(jr.records)
    assert js.event_class_histogram()["Timeout"] == 6


def test_resource_counters():
    env = Environment()
    res, prio = Resource(env, capacity=1), PriorityResource(env)

    def worker(r):
        with r.request() as req:
            yield req
            yield env.timeout(1.0)

    for r in (res, res, res, prio, prio):
        env.process(worker(r))
    env.run()
    assert env.resource_requests == 5
    assert env.resource_queued == 3       # two waited at res, one at prio


def test_profiled_run_matches_unprofiled_trajectory():
    spec = RunSpec("kvaccel", "A", 1, rollback="eager", duration=0.5)
    plain = run_workload(spec, mini_profile(64))
    counted = run_workload(spec, mini_profile(64), kernel_profile=True)
    assert "kernel_profile" not in plain.extra
    assert counted.to_json() == plain.to_json()
    assert (counted.extra["events_processed"]
            == plain.extra["events_processed"])


def test_kernel_counters_of_a_cell():
    """One short kvaccel/A cell: the counts agree with the journal, the
    one dispatch-loop observer, and equal what the loop profiler these
    counts replace reported for the same cell."""
    journal = Journal()
    result = run_workload(
        RunSpec("kvaccel", "A", 1, rollback="eager", duration=1.0),
        mini_profile(128), kernel_profile=True, journal=journal)
    kp = result.extra["kernel_profile"]
    assert set(kp) == KEYS
    assert kp["heap_pops"] == journal.event_count
    assert kp["heap_pushes"] == result.extra["events_processed"]
    assert 0 < kp["resource_queued"] <= kp["resource_requests"]
    assert kp["wall_ns"] > 0
    # The profiler's values for this cell (wall_ns is host time).
    assert {k: v for k, v in kp.items() if k != "wall_ns"} == {
        "heap_pushes": 12396,
        "heap_pops": 12386,
        "resource_requests": 2792,
        "resource_queued": 1109,
        "macro": {"ops": 48, "events": 5, "bursts": 3,
                  "coalesce_factor": 9.6},
        "timeout_pool_hit_rate": 0.0,
    }
