"""Cluster chaos: persistent device faults on one shard, siblings isolated.

The experiment: a 3-shard cluster with the resilience layer on; shard 1's
Dev-LSM write path fails persistently (every ``kv.*.submit`` it reaches,
via :class:`~repro.cluster.ShardScopedPlan`), while shards 0 and 2 see a
healthy device.  Two phases:

* **durability** — a scripted stall window forces redirects on every
  shard (the only path that reaches the armed sites), with one
  differential oracle *per shard* tracking every op; after drain +
  final rollback, no shard may have lost or corrupted data (the faulty
  shard's failed redirects fall back to its Main-LSM).
* **isolation** — an open-loop write load pinned to each shard's slice
  of the range router; the healthy shards' write p99 must stay within
  tolerance of a fault-free control run with the same seed, and the
  blast radius must be exactly shard 1 (the scoped plans'
  ``foreign_hits`` prove healthy shards reached the sites and were
  skipped).

Fault sites are reached inline in the process driving the op, so every
op here runs in a ``shard<N>.``-named process — the same contract the
cluster facade follows.

Assertion messages embed the seed, so any failure replays exactly.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import (  # noqa: E402
    fault_seed,
    make_cluster_system,
    run,
    shard_pinned_load,
)

from repro.cluster import arm_shard, shard_process_name  # noqa: E402
from repro.faults import FAIL, AlwaysPlan, FaultAction  # noqa: E402
from repro.faults.kit import SMALL_RESILIENCE  # noqa: E402
from repro.faults.oracle import DifferentialOracle  # noqa: E402
from repro.resil import DEGRADED, HEALTHY  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402

SHARDS = 3
FAULTY = 1
KEY_SPACE = 1 << 16
WRITE_SITES = ("kv.put.submit", "kv.put_batch.submit", "kv.delete.submit")



def _make_cluster(env, seed, with_fault):
    cluster, registry = make_cluster_system(
        env, shards=SHARDS, router="range", key_space=KEY_SPACE,
        with_faults=True, seed=seed, resilience=SMALL_RESILIENCE)
    scoped = []
    if with_fault:
        action = FaultAction(FAIL, note="persistent")
        scoped = [arm_shard(registry, env, FAULTY, site, AlwaysPlan(),
                            action)
                  for site in WRITE_SITES]
    # Scripted stall windows (the redirect path is the only one that
    # reaches kv.*.submit); the polling daemons would only add noise.
    for sh in cluster.shards:
        sh.db.detector.stop()
        sh.db.rollback_manager.stop()
    return cluster, registry, scoped


def test_faulty_shard_degrades_healthy_shards_keep_durability():
    seed = fault_seed()
    env = Environment()
    cluster, registry, scoped = _make_cluster(env, seed, with_fault=True)
    oracles = [DifferentialOracle(seed=seed + sid) for sid in range(SHARDS)]
    msg = f"(seed={seed:#x})"

    def one_put(sid, key, value):
        sh = cluster.shards[sid]
        oracles[sid].begin_put(key, value)
        try:
            yield from sh.db.put(key, value)
        except Exception:
            oracles[sid].abort()
            if sh.db.main.background_error is not None:
                sh.db.main.resume()
        else:
            oracles[sid].ack()

    def workload():
        # stall window on: every write redirects into the Dev-LSM path,
        # where shard FAULTY's device persistently fails
        for sh in cluster.shards:
            sh.db.detector.stall_condition = True
        for i in range(40):
            for sid in range(SHARDS):
                key = encode_key(sid * 1000 + i, 4)
                # run each op in a shard-named process: fault sites are
                # reached inline, and scoping is by active-process name
                yield env.process(
                    one_put(sid, key, b"c%04d" % i),
                    name=shard_process_name(sid, "chaos"))
        for sh in cluster.shards:
            sh.db.detector.stall_condition = False

    run(env, workload())
    registry.clear_arms()
    run(env, cluster.wait_for_quiesce())
    run(env, cluster.final_rollback())

    # blast radius: shard FAULTY's ops hit the armed plans; healthy
    # shards reached the same sites and were skipped
    assert sum(s.scoped_occurrences for s in scoped) > 0, msg
    assert sum(s.foreign_hits for s in scoped) > 0, (
        f"healthy shards never reached the armed sites — the scenario "
        f"exercised nothing {msg}")
    assert len(registry.injected) > 0, msg

    # per-shard differential oracle: no shard lost or corrupted anything
    for sid, oracle in enumerate(oracles):
        violations = run(env, oracle.verify(cluster.shards[sid].db,
                                            allow_inflight=True))
        assert not violations, (
            f"shard {sid} durability violations {msg}: "
            f"{[v.describe() for v in violations]}")

    # health split: the faulty shard is DEGRADED, siblings HEALTHY
    states = [sh.resil_state for sh in cluster.shards]
    assert states[FAULTY] == DEGRADED, f"states={states} {msg}"
    for sid in (0, 2):
        assert states[sid] == HEALTHY, f"states={states} {msg}"
    assert cluster.degraded_shards() == 1, msg
    assert cluster.shards[FAULTY].db.resil.fallback_writes > 0, msg
    cluster.close()


def _pinned_load_p99s(with_fault: bool, seed: int) -> dict:
    env = Environment()
    cluster, registry, scoped = _make_cluster(env, seed, with_fault)
    # identical stall windows in both runs, so control and faulted differ
    # only in the injected faults
    for sh in cluster.shards:
        sh.db.detector.stall_condition = True
    hists = shard_pinned_load(env, cluster, duration=0.2, rate=2000.0,
                              seed=seed)
    p99s = {sid: h.summary()["p99"] for sid, h in enumerate(hists)
            if h.total_count}
    if with_fault:
        assert sum(s.scoped_occurrences for s in scoped) > 0
        assert cluster.shards[FAULTY].resil_state == DEGRADED
        for sid in (0, 2):
            assert cluster.shards[sid].resil_state == HEALTHY
    cluster.close()
    return p99s


def test_tenant_isolation_healthy_shards_p99_within_tolerance():
    seed = fault_seed()
    control = _pinned_load_p99s(with_fault=False, seed=seed)
    faulted = _pinned_load_p99s(with_fault=True, seed=seed)
    msg = f"(seed={seed:#x})"
    for sid in (0, 2):
        assert sid in control and sid in faulted, msg
        # open-loop arrivals: a degraded sibling must not fatten a healthy
        # shard's tail — tolerance covers histogram-bucket granularity
        # and schedule jitter, not a stall leaking across shards
        assert faulted[sid] <= control[sid] * 1.5 + 100.0, (
            f"healthy shard {sid} p99 {faulted[sid]:.0f}us vs control "
            f"{control[sid]:.0f}us — isolation broken {msg}")
