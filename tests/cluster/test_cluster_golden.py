"""Differential oracle: a 1-shard cluster IS the single-instance system.

The cluster facade promises to be a zero-cost wrapper: with one shard,
every data-plane call passes straight through (``yield from``, no spawned
processes, no extra events), so the full simulated trajectory — every
sampled series, latency percentile, stall interval — must be *bit
identical* to the pinned single-instance fig11 golden run.  Only the
display name may differ ("Cluster(1)" vs "KVAccel(1)").

If this fails, the facade leaked simulation work into the 1-shard path
(an extra event, a reordered construction step) and every cluster result
is suspect — fix the facade, never regenerate the golden for this.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import make_cluster_system, run, small_kvaccel  # noqa: E402

from repro.bench import RunSpec, mini_profile, run_workload  # noqa: E402
from repro.obs import LineageProfiler  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402

GOLDEN = (Path(__file__).resolve().parents[1] / "data"
          / "golden_fig11_cell.json")


def test_one_shard_cluster_matches_pinned_golden_trajectory():
    result = run_workload(
        RunSpec("cluster", "A", 1, rollback="disabled", shards=1),
        mini_profile(256))
    produced = json.loads(json.dumps(result.to_json()))
    golden = json.loads(GOLDEN.read_text())
    assert set(produced) == set(golden)
    for field in golden:
        if field == "name":
            assert produced[field] == "Cluster(1)"
            continue
        assert produced[field] == golden[field], (
            f"1-shard cluster diverged from the single-instance golden in "
            f"field {field!r} — the facade is not a zero-cost wrapper")


def test_one_shard_cluster_matches_plain_kvaccel_reads():
    """Same ops through a 1-shard cluster and a bare KvaccelDb read back
    identically (the small-system form of the differential oracle)."""
    env_a = Environment()
    db, _, _ = small_kvaccel(env_a, rollback="disabled")
    env_b = Environment()
    cluster, _ = make_cluster_system(env_b, shards=1, rollback="disabled")

    keys = [encode_key(i, 4) for i in range(48)]

    def drive(target):
        for i, k in enumerate(keys):
            yield from target.put(k, b"v%03d" % i)
        yield from target.put_batch(
            [(k, b"b%03d" % i) for i, k in enumerate(keys[:16])])
        out = []
        for k in keys:
            out.append((yield from target.get(k)))
        return out

    got_a = run(env_a, drive(db))
    got_b = run(env_b, drive(cluster))
    assert got_a == got_b
    assert env_a.now == env_b.now, (
        "1-shard cluster consumed different simulated time than the bare "
        "system for the same ops")
    db.close()
    cluster.close()


# -- the unreplicated multi-shard facade, pinned event for event ------------
# Recorded at the last commit that still had ``ClusterDb._plain`` (a fork
# of every verb for the unreplicated, non-migrating case).  The facade has
# one data path now; these literals prove it is event-identical to the
# fork it replaced.  Per config: ack time after each phase (192 puts, empty
# / one-owner / N-owner put_batch, 6 deletes, 13 gets, three scans), a
# digest over every per-op ack time and read result, final ``env.now`` and
# the kernel event count.  Lineage on and off share one pin: the profiler
# wraps shard processes but must never add an event.
KEY_SPACE = 256


def _facade_trajectory(shards, lineage):
    """Drive every facade verb over an unreplicated cluster; return the
    per-phase ack times, a digest of every ack time and read result, the
    final clock and the kernel event count."""
    env = Environment()
    if lineage:
        LineageProfiler(env).install()
    cluster, _ = make_cluster_system(env, shards=shards, rollback="eager")
    keys = [encode_key(i * 37 % KEY_SPACE) for i in range(64)]
    owned = [k for k in keys if cluster.router.route(k) == 1][:6]
    acks, phases, reads = [], [], []

    def value(tag, i):
        return (b"%s%04d;" % (tag, i)) * 70

    def drive():
        for i in range(192):
            yield from cluster.put(keys[i % 64], value(b"p", i))
            acks.append(env.now)
        phases.append(env.now)
        for batch in ([],                                      # empty
                      [(k, value(b"o", i)) for i, k in enumerate(owned)],
                      [(k, value(b"n", i)) for i, k in enumerate(keys[:32])]):
            yield from cluster.put_batch(batch)
            acks.append(env.now)
            phases.append(env.now)
        for k in keys[3:9]:
            yield from cluster.delete(k)
            acks.append(env.now)
        phases.append(env.now)
        for k in keys[:12] + [encode_key(255)]:
            reads.append((yield from cluster.get(k)))
            acks.append(env.now)
        phases.append(env.now)
        for start, count in ((0, 10), (200, 5), (100, 64)):
            reads.append((yield from cluster.scan(encode_key(start), count)))
            acks.append(env.now)
            phases.append(env.now)
        yield from cluster.wait_for_quiesce()

    run(env, drive())
    digest = hashlib.sha256(repr((acks, reads)).encode()).hexdigest()[:16]
    out = (phases, digest, env.now, env.events_scheduled)
    cluster.close()
    return out


FACADE_GOLDEN = {
    2: (
        [0.015992860925674465, 0.015992860925674465, 0.016016860925674465,
         0.017011370406150843, 0.017035370406150847, 0.017100370406150867,
         0.01712437040615087, 0.01713637040615087, 0.017148370406150873],
        "e8fe799e17fb93a3", 0.017148370406150873, 375),
    4: (
        [0.015191552455902127, 0.015191552455902127, 0.016065015160560636,
         0.016902323630332977, 0.01692632363033298, 0.016991323630333,
         0.017015323630333003, 0.017027323630333005, 0.017039323630333007],
        "01737d9019eec6c3", 0.017039323630333007, 445),
}


@pytest.mark.parametrize("lineage", [False, True], ids=["plain", "lineage"])
@pytest.mark.parametrize("shards", sorted(FACADE_GOLDEN),
                         ids=lambda shards: f"{shards}-hash")
def test_unreplicated_facade_trajectory_is_pinned(shards, lineage):
    got = _facade_trajectory(shards, lineage)
    assert got == FACADE_GOLDEN[shards], (
        "the unreplicated facade no longer replays the pinned trajectory "
        "- the single data path added, dropped or reordered an event")
