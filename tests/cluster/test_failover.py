"""Failover battery: primary kills mid-run, typed rejection, degraded
promotion, and the bounded acked-write-loss sweep.

The heavy lifting lives in :mod:`repro.cluster.scenario` — each test
here runs one deterministic story (seeded via ``REPRO_FAULT_SEED``
override like every fault test; assertion messages embed the seed) and
asserts the report's oracle verdict plus the specific mechanism under
test.  The full two-mode crash-point sweep runs in
``python -m repro.bench failover``; the version here is bounded for
tier-1 wall-clock.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import make_replicated_cluster, run  # noqa: E402

from repro.cluster import (  # noqa: E402
    INDEX_SHIP,
    REPLAY,
    ReplicationConfig,
    failover_sweep,
    run_failover_scenario,
)
from repro.resil import (  # noqa: E402
    TRANSIENT,
    FailoverInProgress,
    ResilienceConfig,
    RetryPolicy,
)
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402


@pytest.mark.parametrize("mode", [REPLAY, INDEX_SHIP])
def test_primary_kill_mid_run_promotes_and_loses_nothing(mode):
    r = run_failover_scenario(mode, ops=60)
    assert r.crashed, r.describe()
    assert r.failovers >= 1, r.describe()
    assert r.ok, r.describe()
    assert not r.lost and not r.stale, r.describe()
    # The promoted slot kept serving: every op eventually acked.
    assert r.acked == r.ops, r.describe()


def test_scripted_kill_and_epoch_advances():
    r = run_failover_scenario(REPLAY, kill_site=None, kill_at_op=12, ops=50)
    assert r.crashed and r.failovers == 1, r.describe()
    assert r.ok, r.describe()
    assert r.acked == r.ops, r.describe()


def test_rejection_is_typed_and_transient():
    """With the retry budget collapsed to one attempt, the facade's
    rejection during a failover surfaces as the typed
    :class:`FailoverInProgress` — transient, shard-addressed."""
    env = Environment()
    repl = ReplicationConfig(retry=RetryPolicy(max_attempts=1))
    cluster, _ = make_replicated_cluster(env, shards=1, replication=repl)
    run(env, cluster.put(encode_key(1), b"before"))
    grp = cluster.groups[0]
    grp.kill_primary()
    assert not grp.accepting()
    with pytest.raises(FailoverInProgress) as ei:
        run(env, cluster.put(encode_key(2), b"rejected"))
    assert ei.value.sid == 0
    assert ei.value.kind == TRANSIENT
    assert ei.value.site == "cluster.shard0"
    assert ei.value.epoch == 0
    cluster.close()


def test_default_retry_rides_out_the_failover_window():
    """Same kill, default budget: the caller sees latency, not an error
    — the write issued into the dead slot lands on the promoted backup."""
    env = Environment()
    cluster, _ = make_replicated_cluster(env, shards=1)
    run(env, cluster.put(encode_key(1), b"before"))
    grp = cluster.groups[0]
    grp.kill_primary()
    run(env, cluster.put(encode_key(2), b"after-promotion"))
    assert grp.failovers == 1 and grp.epoch == 1
    assert run(env, cluster.get(encode_key(2))) == b"after-promotion"
    # The pre-kill acked write survived via catch-up.
    assert run(env, cluster.get(encode_key(1))) == b"before"
    cluster.close()


def test_scan_is_gated_only_on_the_replica_groups_it_targets():
    """A range-routed scan that starts above a failing-over shard's range
    never touches it: it must return at once, not ride that shard's
    ``FailoverInProgress`` backoff (the gate used to loop over every
    group before the targets were computed)."""
    env = Environment()
    cluster, _ = make_replicated_cluster(env, shards=2, router="range")
    high = [encode_key((1 << 15) + 100 + i) for i in range(8)]
    assert {cluster.router.route(k) for k in high} == {1}
    run(env, cluster.put_batch([(k, b"v") for k in high]))
    cluster.groups[0].kill_primary()
    assert not cluster.groups[0].accepting()
    rows = run(env, cluster.scan(high[0], len(high)))
    assert [k for k, _ in rows] == high
    assert cluster._retry.stats.retries == 0
    # A scan that does reach the dead slot still waits out the promotion.
    run(env, cluster.scan(encode_key(0), 4))
    assert cluster._retry.stats.retries > 0
    assert cluster.groups[0].failovers == 1
    cluster.close()


def test_failover_on_degraded_promotes_off_a_sick_primary():
    resil = ResilienceConfig(degrade_error_threshold=3,
                             degrade_window=0.05,
                             recover_probation=10.0,
                             recover_min_successes=1 << 30)
    repl = ReplicationConfig(mode=REPLAY, failover_on_degraded=True)
    r = run_failover_scenario(
        REPLAY, kill_site=None, degrade_at_op=10, ops=50,
        resilience=resil, replication=repl)
    assert r.failovers >= 1, r.describe()
    assert r.ok or r.crashed is False, r.describe()
    assert not r.lost and not r.stale, r.describe()


@pytest.mark.parametrize("mode", [REPLAY, INDEX_SHIP])
def test_bounded_zero_loss_sweep(mode):
    reports = failover_sweep(mode, occurrences=range(1, 4), ops=40)
    bad = [r.describe() for r in reports if not r.ok]
    assert not bad, "; ".join(bad)
    assert all(r.crashed and r.failovers >= 1 for r in reports), \
        [r.describe() for r in reports]


def test_negative_control_no_crash_no_failover():
    r = run_failover_scenario(REPLAY, kill_site=None, ops=50)
    assert r.ok and not r.crashed, r.describe()
    assert r.failovers == 0 and r.aborted == 0, r.describe()
    assert r.acked == r.ops, r.describe()
