"""Live resharding: router seed bump, key migration, dual-read window.

The contract under test: a ``rebalance()`` atomically cuts writes over
to the new placement, the migration driver copies every moved key to its
new owner (tombstoning the old copy), reads during the window forward
new-owner misses to the old owner, and a post-cut-over write always wins
over the migrating stale copy — composing with replication when the
cluster has replica groups.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import make_cluster_system, run  # noqa: E402

from repro.cluster import (  # noqa: E402
    REPLAY,
    run_failover_scenario,
)
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402

KEYS = 48


def _filled_cluster(env, **kw):
    cluster, registry = make_cluster_system(env, shards=3, **kw)

    def fill():
        for i in range(KEYS):
            yield from cluster.put(encode_key(i), b"orig%04d" % i)

    run(env, fill())
    return cluster, registry


def test_migration_moves_ownership_and_preserves_data():
    env = Environment()
    cluster, _ = _filled_cluster(env)
    old_router = cluster.router

    mig_proc = cluster.rebalance()
    mig = cluster._migration
    assert mig is not None and not mig.done
    moved = [encode_key(i) for i in range(KEYS)
             if mig.moved(encode_key(i))]
    assert moved, "seed bump must relocate some keys"
    env.run(until=mig_proc)
    assert cluster._migration is None
    assert cluster.rebalances == 1
    assert cluster._moved_total == len(moved)

    # Every key reads back through the facade...
    for i in range(KEYS):
        assert run(env, cluster.get(encode_key(i))) == b"orig%04d" % i, i
    # ...and each moved key now lives on its *new* owner only.
    for key in moved:
        new_sid = cluster.router.route(key)
        assert new_sid != old_router.route(key)
        assert run(env, cluster.shards[new_sid].db.get(key)) is not None
        assert run(env,
                   cluster.shards[old_router.route(key)].db.get(key)) is None
    rep = cluster.cluster_report()
    assert rep["rebalances"] == 1 and rep["moved_keys"] == len(moved)
    cluster.close()


def test_fresh_write_beats_migrating_stale_copy():
    env = Environment()
    cluster, _ = _filled_cluster(env)

    mig_proc = cluster.rebalance()
    mig = cluster._migration
    moved = next(encode_key(i) for i in range(KEYS)
                 if mig.moved(encode_key(i)))

    def race():
        # Write (and separately delete) moved keys while the copy runs.
        yield from cluster.put(moved, b"fresh-wins")
        for i in range(KEYS):
            k = encode_key(i)
            if k != moved and mig.moved(k):
                yield from cluster.delete(k)
                return

    run(env, race())
    env.run(until=mig_proc)
    assert run(env, cluster.get(moved)) == b"fresh-wins"
    deleted = [encode_key(i) for i in range(KEYS)
               if encode_key(i) != moved and mig.moved(encode_key(i))][:1]
    for k in deleted:
        assert run(env, cluster.get(k)) is None, "fresh delete resurrected"
    cluster.close()


def test_dual_read_forwards_new_owner_miss_to_old_owner():
    env = Environment()
    cluster, registry = _filled_cluster(env, with_faults=True)

    cluster.rebalance()
    mig = cluster._migration
    moved = [encode_key(i) for i in range(KEYS)
             if mig.moved(encode_key(i))]

    def early_reads():
        # Immediately after the cut-over the copies have not landed; the
        # new owner misses and the facade must forward to the old owner.
        for key in moved:
            got = yield from cluster.get(key)
            assert got is not None, key

    run(env, early_reads())
    assert registry.hits.get("reshard.forward.read", 0) >= 1
    assert registry.hits.get("reshard.start", 0) == 1
    cluster.close()


def test_rebalance_composes_with_replication():
    r = run_failover_scenario(REPLAY, kill_site=None, reshard_at_op=10,
                              ops=60)
    assert r.rebalanced and r.moved_keys > 0, r.describe()
    assert r.ok and r.failovers == 0, r.describe()


def test_rebalance_validation():
    env = Environment()
    cluster, _ = make_cluster_system(env, shards=2)
    cluster.rebalance()
    with pytest.raises(RuntimeError):
        cluster.rebalance()          # one migration at a time
    cluster.close()
