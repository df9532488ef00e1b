"""ROADMAP item 1 in tier-1: a rollback that overlaps ``put_batch`` loses
and reorders acknowledged writes.

This is the ``benchmarks/e2e`` overlap cell as a test: the ``fill_kvaccel``
system (public ``build_system``, profile ``mini1024``) written through
``put_batch`` by the crash kit's oracle client while its own rollback
daemon runs, then every acknowledged key read back.  Keys repeat and every
write carries a fresh value, so a stale read is detectable.

It is expected to fail for the diagnosed reason — acked reads come back
stale or missing — and ``strict`` turns the day the race is fixed into a
hard failure here, so the marker is deleted with the fix.
"""

import random

import pytest

from repro.bench import RunSpec, build_system
from repro.bench.profiles import get_profile
from repro.faults.kit import OracleClient
from repro.sim import Environment
from repro.types import ValueRef, encode_key

KEY_SPACE = 4096
MAX_WRITES = 60_000
REDIRECTED = 256
ROLLBACKS = 3       # the first ones can find the Dev-LSM still empty


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("rollback", ["eager", "lazy"])
def test_acked_writes_survive_a_rollback_overlapping_put_batch(rollback):
    profile = get_profile("mini1024")
    env = Environment()
    db, _ssd, _cpu = build_system(
        env, profile, RunSpec("kvaccel", "A", 1, rollback=rollback, seed=1))
    client = OracleClient(db, seed=1)
    rng = random.Random(1)
    writes = 0

    def overlapped() -> bool:
        snap = db.snapshot()
        return (snap["redirected_writes"] >= REDIRECTED
                and snap["rollbacks"] >= ROLLBACKS)

    def drive():
        nonlocal writes
        while writes < MAX_WRITES and not overlapped():
            batch = {encode_key(rng.randrange(KEY_SPACE), profile.key_size):
                     ValueRef(seed=writes + i, size=profile.value_size)
                     for i in range(profile.batch_size)}
            yield from client.put_batch(list(batch.items()))
            writes += len(batch)
        return (yield from client.oracle.verify(db))

    violations = env.run(until=env.process(drive()))
    db.close()
    assert overlapped(), "no rollback overlapped the writes: wrong test"
    assert not violations, (
        f"{len(violations)} of {len(client.oracle.tracked_keys())} acked "
        f"keys read back stale or missing, e.g. {violations[0].describe()}")
