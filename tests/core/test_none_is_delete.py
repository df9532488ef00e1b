"""A ``None`` value in ``put_batch`` is a delete, on every path.

`make_entry`, the controller's fallback, the cluster facade, the replica
apply loop and the differential oracle all read ``(key, None)`` as a
delete.  The Main-LSM write path and the KV device's PUT commands once
stored it as a live row whose value is ``None`` instead, so a scan showed
the key where ``delete(key)`` hides it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run  # noqa: E402

from repro.cluster import INDEX_SHIP, REPLAY, ReplicationConfig  # noqa: E402
from repro.cluster.scenario import build_replicated_cluster  # noqa: E402
from repro.faults.kit import OracleClient, scripted_stack  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402

KEYS = [encode_key(i) for i in range(8)]
VALUE = b"v" * 64


@pytest.mark.parametrize("redirected", [False, True],
                         ids=["main-lsm", "redirected"])
def test_put_batch_none_scans_like_delete(redirected):
    env = Environment()
    db = scripted_stack(env)
    seen = {}

    def workload():
        yield from db.put_batch([(k, VALUE) for k in KEYS])
        db.detector.stall_condition = redirected
        yield from db.put_batch([(KEYS[2], None), (KEYS[5], None)])
        yield from db.delete(KEYS[6])
        seen["before"] = yield from db.scan(KEYS[0], len(KEYS))
        db.detector.stall_condition = False
        yield from db.final_rollback()
        seen["after"] = yield from db.scan(KEYS[0], len(KEYS))

    run(env, workload())
    assert db.controller.redirected_writes == (3 if redirected else 0)
    live = [(k, VALUE) for i, k in enumerate(KEYS) if i not in (2, 5, 6)]
    assert seen["before"] == live
    assert seen["after"] == live


@pytest.mark.parametrize("mode", [REPLAY, INDEX_SHIP])
def test_replicated_primary_and_backup_agree_on_none(mode):
    env = Environment()
    cluster = build_replicated_cluster(
        env, shards=2, replication=ReplicationConfig(mode=mode))

    def workload():
        yield from cluster.put_batch([(k, VALUE) for k in KEYS])
        yield from cluster.put_batch([(k, None) for k in KEYS[::2]])
        yield from cluster.drain_replication()
        scans = []
        for sid, sh in enumerate(cluster.shards):
            primary = yield from sh.db.scan(KEYS[0], len(KEYS))
            backup = yield from cluster.groups[sid].backups[0].db.scan(
                KEYS[0], len(KEYS))
            scans.append((primary, backup))
        return scans

    scans = run(env, workload())
    cluster.close()
    for primary, backup in scans:
        assert primary == backup
        assert all(v is not None for _k, v in primary)
    assert sorted(k for primary, _ in scans for k, _v in primary) \
        == KEYS[1::2]


def test_oracle_client_put_batch_none_then_scan():
    env = Environment()
    client = OracleClient(scripted_stack(env))

    def workload():
        yield from client.put_batch([(k, VALUE) for k in KEYS])
        yield from client.put_batch([(KEYS[3], None)])
        yield from client.scan(KEYS[0], len(KEYS))   # raises on divergence

    run(env, workload())
    assert client.oracle.committed[KEYS[3]] is None
