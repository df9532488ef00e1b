"""Replica groups: replication-mode semantics and off-by-default gating.

Covers the two replication modes' *lag contracts* (replay applies a
record only after its sim-time lag window; index-ship installs only at
ship-period boundaries, paying link amplification), backup convergence
under ``drain()``, and the gating claims the tentpole makes: a cluster
built without a :class:`ReplicationConfig` constructs no replica
machinery, and a replicated, failure-free run leaves the *primary's*
trajectory identical to the unreplicated cluster (the group only reads
acks via pure-Python log appends).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import make_cluster_system, make_replicated_cluster, run  # noqa: E402

from repro.cluster import (  # noqa: E402
    INDEX_SHIP,
    REPLAY,
    ReplicationConfig,
)
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402


def _fill(cluster, n, stride=1, tag=b"v"):
    for i in range(n):
        yield from cluster.put(encode_key(i * stride),
                               tag + b"%04d" % i)


def test_replay_respects_lag_window():
    env = Environment()
    repl = ReplicationConfig(mode=REPLAY, lag=0.05, poll=0.001)
    cluster, _ = make_replicated_cluster(env, shards=1, replication=repl)
    run(env, _fill(cluster, 8))
    grp = cluster.groups[0]
    assert len(grp.log) == 8
    t_acked = grp.log[-1][0]

    # Inside the lag window nothing may have applied yet.
    env.run(until=t_acked + repl.lag / 2)
    assert grp.backups[0].cursor == 0
    assert grp.replication_lag() == 8

    # Past the window (plus a poll) the whole log streams across.
    env.run(until=t_acked + repl.lag + 10 * repl.poll)
    assert grp.backups[0].cursor == 8
    assert grp.replication_lag() == 0
    # ...as real writes on the backup stack, readable in place.
    got = run(env, grp.backups[0].db.get(encode_key(0)))
    assert got == b"v0000"
    cluster.close()


def test_index_ship_installs_at_boundaries_with_amplification():
    env = Environment()
    repl = ReplicationConfig(mode=INDEX_SHIP, ship_period=0.02,
                             ship_amplification=1.4, poll=0.001)
    cluster, _ = make_replicated_cluster(env, shards=1, replication=repl)
    run(env, _fill(cluster, 8))
    grp = cluster.groups[0]
    t_acked = grp.log[-1][0]
    assert t_acked < repl.ship_period, "fill must finish inside period 0"

    # Before the first boundary closes: nothing shipped.
    env.run(until=repl.ship_period - 1e-4)
    assert grp.backups[0].cursor == 0
    assert grp.link.ledger.total_bytes == 0

    # After the boundary: the whole installment lands in bulk, and the
    # link paid the shipping amplification over the raw record bytes.
    env.run(until=repl.ship_period + 10 * repl.poll)
    assert grp.backups[0].cursor == 8
    raw = sum(16 + len(k) + len(v) for _t, k, v in grp.log)
    assert grp.link.ledger.total_bytes >= raw * repl.ship_amplification * 0.99
    cluster.close()


@pytest.mark.parametrize("mode", [REPLAY, INDEX_SHIP])
def test_backups_converge_under_drain(mode):
    env = Environment()
    cluster, _ = make_replicated_cluster(env, shards=2, mode=mode)

    def workload():
        yield from _fill(cluster, 24)
        yield from cluster.delete(encode_key(3))
        yield from cluster.put(encode_key(5), b"rewritten")

    run(env, workload())
    for grp in cluster.groups.values():
        run(env, grp.drain())
        assert grp.replication_lag() == 0
        b = grp.backups[0]
        # Every key the primary owns reads identically on the backup.
        for i in range(24):
            key = encode_key(i)
            if cluster.router.route(key) != grp.sid:
                continue
            want = run(env, cluster.get(key))
            assert run(env, b.db.get(key)) == want, (mode, i)
    cluster.close()


def test_failure_free_primary_trajectory_identical_to_unreplicated():
    """The gating claim: with replication on and no failure, every facade
    ack lands at the *same sim time* as in an unreplicated cluster — the
    replica machinery costs the primary nothing."""

    def ack_times(cluster, env):
        times = []

        def driver():
            for i in range(40):
                key = encode_key(i % 12)
                if i % 7 == 6:
                    yield from cluster.delete(key)
                else:
                    yield from cluster.put(key, b"x%05d" % i)
                times.append(env.now)

        run(env, driver())
        return times

    env_a = Environment()
    plain, _ = make_cluster_system(env_a, shards=2)
    t_plain = ack_times(plain, env_a)
    plain.close()

    env_b = Environment()
    replicated, _ = make_replicated_cluster(env_b, shards=2)
    t_repl = ack_times(replicated, env_b)
    assert replicated.groups[0].failovers == 0
    replicated.close()

    assert t_plain == t_repl


def test_off_by_default_gating_and_config_validation():
    env = Environment()
    plain, _ = make_cluster_system(env, shards=2)
    assert plain.groups == {}
    plain.close()

    env2 = Environment()
    replicated, _ = make_replicated_cluster(env2, shards=2)
    assert set(replicated.groups) == {0, 1}
    assert all(g.accepting() for g in replicated.groups.values())
    replicated.close()

    with pytest.raises(ValueError):
        ReplicationConfig(mode="paxos")
    with pytest.raises(ValueError):
        ReplicationConfig(backups=0)
    with pytest.raises(ValueError):
        ReplicationConfig(lag=-1.0)
    with pytest.raises(ValueError):
        ReplicationConfig(miss_threshold=0)
