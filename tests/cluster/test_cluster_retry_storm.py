"""Retry-storm chaos: one shard flaps under retries, its siblings hold.

The scenario ISSUE-8 adds to the cluster battery: shard 1's Dev-LSM write
path fails *transiently* (every second scoped hit, so each failure is
healed by one retry and the shard never degrades into an outage), while
an open-loop write load pinned to each shard drives every shard.
Assertions:

* the ``retry_storm.shard1`` health rule fires — and no other shard's
  retry rule does — off the per-shard ``cluster.shard{k}.retries``
  telemetry channel;
* retry traffic lands only on the faulted shard's channels (healthy
  shards' retry counters stay at zero);
* healthy shards' write p99 stays within tolerance of a fault-free
  control run with the same seed — a storming sibling must not fatten
  a healthy shard's tail.

Assertion messages embed the seed, so any failure replays exactly.
"""

import sys
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import (  # noqa: E402
    fault_seed,
    make_cluster_system,
    shard_pinned_load,
)

from repro.cluster import arm_shard  # noqa: E402
from repro.faults import FAIL, FaultAction, NthOccurrencePlan  # noqa: E402
from repro.obs import cluster_shard_rules  # noqa: E402
from repro.obs import rules as rules_mod  # noqa: E402
from repro.obs.rules import HealthMonitor  # noqa: E402
from repro.obs.telemetry import TelemetryHub  # noqa: E402
from repro.resil import HEALTHY, ResilienceConfig  # noqa: E402
from repro.sim import Environment  # noqa: E402

SHARDS = 3
FAULTY = 1
WRITE_SITES = ("kv.put.submit", "kv.put_batch.submit", "kv.delete.submit")
PERIOD = 0.02          # telemetry bucket (s)
STORM_RATE = 100.0     # retries/s that count as a storm (2 per bucket)

# A storm, not an outage: interleaved commands can land every attempt on
# a failing (even) occurrence and exhaust their retries, so the rare
# escaped error is absorbed by the Main-LSM fallback — the degradation
# threshold is parked out of reach so the shard flaps without tripping
# DEGRADED and the retry pressure is sustained for the whole run.
RESIL = ResilienceConfig(degrade_error_threshold=1_000_000,
                         degrade_window=0.05,
                         recover_probation=1e-5,
                         recover_min_successes=4)


def _make_storm_cluster(env, seed, with_fault):
    """Cluster + detached telemetry/health pair watching shard channels.

    The hub is installed *before* the cluster is built so the facade's
    ``_register_telemetry`` wires the per-shard channels (including the
    resilience-gated ``cluster.shard{k}.retries`` deriv).
    """
    hub = TelemetryHub(env, period=PERIOD).install(env)
    cluster, registry = make_cluster_system(
        env, shards=SHARDS, with_faults=True, seed=seed, resilience=RESIL)
    with mock.patch.object(rules_mod, "RETRY_STORM_RATE", STORM_RATE):
        monitor = HealthMonitor(hub, cluster_shard_rules(SHARDS,
                                                         period=PERIOD))
    scoped = []
    if with_fault:
        # Transient failure on every second scoped hit: each failure is
        # healed by one retry (max_attempts=4), so the shard flaps
        # without ever tripping the degradation threshold — a storm,
        # not an outage.
        action = FaultAction(FAIL, note="transient")
        scoped = [arm_shard(registry, env, FAULTY, site,
                            NthOccurrencePlan(2, repeat=True), action)
                  for site in WRITE_SITES]
    for sh in cluster.shards:
        sh.db.detector.stop()
        sh.db.rollback_manager.stop()
    return cluster, registry, scoped, hub, monitor


def _storm_run(with_fault: bool, seed: int):
    env = Environment()
    cluster, registry, scoped, hub, monitor = _make_storm_cluster(
        env, seed, with_fault)
    # stall window on: every write redirects into the Dev-LSM path,
    # where shard FAULTY's device flaps
    for sh in cluster.shards:
        sh.db.detector.stall_condition = True
    hists = shard_pinned_load(env, cluster, duration=0.2, rate=2000.0,
                              seed=seed)
    hub.flush()

    p99s = {sid: h.summary()["p99"] for sid, h in enumerate(hists)
            if h.total_count}
    retries = {sid: hub.channels[f"cluster.shard{sid}.retries"].total
               for sid in range(SHARDS)}
    storms = {e.rule for e in monitor.events
              if e.phase == "enter" and e.rule.startswith("retry_storm.")}
    if with_fault:
        assert sum(s.scoped_occurrences for s in scoped) > 0
    cluster.close()
    return p99s, retries, storms, cluster


def test_retry_storm_fires_only_on_the_faulted_shard():
    seed = fault_seed()
    msg = f"(seed={seed:#x})"
    p99s, retries, storms, cluster = _storm_run(with_fault=True, seed=seed)

    # retry traffic is confined to the faulted shard's channels
    assert retries[FAULTY] > 0, f"no retries on the faulted shard {msg}"
    for sid in (0, 2):
        assert retries[sid] == 0, (
            f"healthy shard {sid} saw retries: {retries} {msg}")

    # the per-shard health rule names exactly the storming shard
    assert storms == {f"retry_storm.shard{FAULTY}"}, (
        f"storm rules fired: {storms} {msg}")

    # retries healed every failure: the flapping shard never degraded
    for sh in cluster.shards:
        assert sh.resil_state == HEALTHY, (
            f"shard {sh.sid} state {sh.resil_state} {msg}")


def test_retry_storm_healthy_tenant_p99_isolated():
    seed = fault_seed()
    msg = f"(seed={seed:#x})"
    control, c_retries, c_storms, _ = _storm_run(with_fault=False, seed=seed)
    faulted, f_retries, f_storms, _ = _storm_run(with_fault=True, seed=seed)

    assert not c_storms and all(v == 0 for v in c_retries.values()), (
        f"control run was not clean: {c_storms} {c_retries} {msg}")
    for sid in (0, 2):
        assert sid in control and sid in faulted, msg
        # open-loop arrivals: a storming sibling must not fatten a
        # healthy shard's tail — tolerance covers histogram-bucket
        # granularity and schedule jitter, not cross-shard leakage
        assert faulted[sid] <= control[sid] * 1.5 + 100.0, (
            f"healthy shard {sid} p99 {faulted[sid]:.0f}us vs control "
            f"{control[sid]:.0f}us — isolation broken {msg}")
