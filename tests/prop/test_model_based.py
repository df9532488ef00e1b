"""Model-based property tests: full DB stacks vs a dict reference model."""

import random
import sys
from pathlib import Path

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db, small_kvaccel, small_options  # noqa: E402

from repro.core import RollbackConfig  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import ValueRef, encode_key  # noqa: E402

# op := (kind, key, value-byte) with kind in {put, delete, get, scan}
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["put", "put", "put", "delete", "get", "scan"]),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1, max_size=120,
)

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


def _apply_ops(env, db, ops, stall_pattern=None):
    """Drive ops against the DB and a dict model, checking as we go."""
    model = {}

    def gen():
        for i, (kind, k, vb) in enumerate(ops):
            if stall_pattern is not None and hasattr(db, "detector"):
                db.detector.stall_condition = stall_pattern(i)
            key = encode_key(k)
            if kind == "put":
                v = bytes([vb]) * 24 + b":%d" % i
                yield from db.put(key, v)
                model[key] = v
            elif kind == "delete":
                yield from db.delete(key)
                model.pop(key, None)
            elif kind == "get":
                got = yield from db.get(key)
                assert got == model.get(key), (i, k)
            else:  # scan
                got = yield from db.scan(key, 8)
                expected = [(mk, model[mk]) for mk in sorted(model)
                            if mk >= key][:8]
                assert got == expected, (i, k)
        if hasattr(db, "detector"):
            db.detector.stall_condition = False

    run(env, gen())
    return model


def _final_check(env, db, model):
    for k in range(61):
        key = encode_key(k)
        assert run(env, db.get(key)) == model.get(key), k
    full = run(env, db.scan(encode_key(0), 100))
    assert full == [(mk, model[mk]) for mk in sorted(model)]


@SETTINGS
@given(ops_strategy)
def test_dbimpl_matches_dict_model(ops):
    env = Environment()
    db, _, _ = small_db(env)
    model = _apply_ops(env, db, ops)
    run(env, db.wait_for_quiesce())
    _final_check(env, db, model)
    db.close()


@SETTINGS
@given(ops_strategy, st.integers(min_value=0, max_value=7))
def test_kvaccel_matches_dict_model_under_stall_flapping(ops, phase):
    """The dual-interface store must be indistinguishable from a dict even
    when the stall signal flips arbitrarily between operations."""
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="disabled")
    db.detector.stop()
    stall = lambda i: ((i + phase) // 3) % 2 == 0  # noqa: E731
    model = _apply_ops(env, db, ops, stall_pattern=stall)
    _final_check(env, db, model)
    db.close()


@SETTINGS
@given(ops_strategy)
def test_kvaccel_rollback_preserves_model(ops):
    """After a full rollback the Main-LSM alone must serve the model."""
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="disabled")
    db.detector.stop()
    stall = lambda i: i % 2 == 0  # noqa: E731
    model = _apply_ops(env, db, ops, stall_pattern=stall)
    run(env, db.final_rollback())
    assert ssd.kv.is_empty
    assert len(db.metadata) == 0
    run(env, db.wait_for_quiesce())
    _final_check(env, db, model)
    db.close()


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                min_size=1, max_size=80))
def test_host_crash_durability_contract(writes):
    """A write survives a host crash iff it reached an SST or a flushed WAL
    group; newest surviving version wins.  Random writes with random sync
    points, crash, recover, compare against the durable model."""
    env = Environment()
    db, _, _ = small_db(env, small_options(wal_group_commit_bytes=1 << 30))
    durable = {}
    volatile = {}

    def gen():
        for i, (k, sync_after) in enumerate(writes):
            key = encode_key(k)
            v = b"%d:%d" % (k, i)
            yield from db.put(key, v)
            volatile[key] = v
            if sync_after:
                yield from db.wal.sync()
                durable.update(volatile)
                volatile.clear()
        yield from db.crash_and_recover()
        yield from db.wait_for_quiesce()

    run(env, gen())
    # Note: a memtable switch also syncs the WAL, so `durable` is a lower
    # bound; keys in `volatile` may or may not have survived, but any that
    # did must carry their newest pre-crash value.
    for key, v in durable.items():
        if key not in volatile:  # not overwritten by a maybe-lost write
            assert run(env, db.get(key)) == v
    for key, v in volatile.items():
        got = run(env, db.get(key))
        assert got in (v, durable.get(key), None)
    db.close()


@SETTINGS
@given(ops_strategy)
def test_kvaccel_recovery_preserves_model(ops):
    """Crash-recovery (metadata loss) must never lose or resurrect data."""
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="disabled")
    db.detector.stop()
    stall = lambda i: i % 3 != 0  # noqa: E731
    model = _apply_ops(env, db, ops, stall_pattern=stall)
    run(env, db.recover())
    run(env, db.wait_for_quiesce())
    _final_check(env, db, model)
    db.close()


# The whole stack with its daemons: a put_batch carries BATCH consecutive
# keys of VALUE_SIZE bytes, enough load for the detector to latch real
# stalls, so redirected batches, rollbacks and normal writes interleave on
# their own; "recover" loses the metadata table and rolls back.
BATCH = 8
VALUE_SIZE = 2048
daemon_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["batch", "batch", "batch", "put", "delete", "get",
                         "scan", "recover"]),
        st.integers(min_value=0, max_value=60),
    ),
    min_size=40, max_size=200,
)


# Derandomized, so the examples are the same on every run; not shrunk,
# because each one drives a whole stack and shrinking a failure takes
# minutes (the printed example replays as it is).
@settings(SETTINGS, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(daemon_ops_strategy, st.sampled_from(["eager", "lazy"]))
def test_kvaccel_with_its_daemons_matches_dict_model(ops, scheme):
    """Every acknowledged write reads back newest-wins, with the detector
    and an eager or lazy rollback daemon running under the client."""
    env = Environment()
    db, _ssd, _ = small_kvaccel(
        env, rollback=RollbackConfig(scheme=scheme, quiet_window=0.005))
    model = {}

    def gen():
        for i, (kind, k) in enumerate(ops):
            key = encode_key(k)
            if kind == "batch":
                pairs = [(encode_key((k + j) % 61),
                          ValueRef(seed=i * BATCH + j, size=VALUE_SIZE))
                         for j in range(BATCH)]
                yield from db.put_batch(pairs)
                model.update(pairs)
            elif kind == "put":
                v = ValueRef(seed=-i, size=VALUE_SIZE)
                yield from db.put(key, v)
                model[key] = v
            elif kind == "delete":
                yield from db.delete(key)
                model.pop(key, None)
            elif kind == "get":
                got = yield from db.get(key)
                assert got == model.get(key), (i, k)
            elif kind == "scan":
                got = yield from db.scan(key, 8)
                expected = [(mk, model[mk]) for mk in sorted(model)
                            if mk >= key][:8]
                assert got == expected, (i, k)
            else:  # recover: a crash between two rollbacks
                while db.controller.rollback_in_progress:
                    yield env.timeout(0.001)
                yield from db.recover()

    run(env, gen())
    _final_check(env, db, model)
    db.close()


def test_kvaccel_with_device_compaction_matches_dict_model():
    """The daemons' cell with in-device compaction on: redirected batches
    flush enough Dev-LSM runs to compact them between lazy rollbacks, and
    every acknowledged write still reads back newest-wins (GET, the
    SEEK/NEXT scan, and the Main-LSM alone after the final rollback)."""
    env = Environment()
    db, ssd, _ = small_kvaccel(
        env, rollback=RollbackConfig(scheme="lazy", quiet_window=0.005))
    ssd.devlsm.config.compaction_enabled = True
    rng = random.Random(1)
    ops = [(rng.choice(["batch"] * 4 + ["put", "delete", "delete", "get",
                                        "scan"]),
            rng.randrange(61)) for _ in range(200)]
    model = {}

    def gen():
        for i, (kind, k) in enumerate(ops):
            key = encode_key(k)
            if kind == "batch":
                pairs = [(encode_key((k + j) % 61),
                          ValueRef(seed=i * BATCH + j, size=VALUE_SIZE))
                         for j in range(BATCH)]
                yield from db.put_batch(pairs)
                model.update(pairs)
            elif kind == "put":
                v = ValueRef(seed=-i, size=VALUE_SIZE)
                yield from db.put(key, v)
                model[key] = v
            elif kind == "delete":
                yield from db.delete(key)
                model.pop(key, None)
            elif kind == "get":
                got = yield from db.get(key)
                assert got == model.get(key), (i, k)
            else:
                got = yield from db.scan(key, 8)
                expected = [(mk, model[mk]) for mk in sorted(model)
                            if mk >= key][:8]
                assert got == expected, (i, k)

    run(env, gen())
    assert ssd.devlsm.compaction_count > 0
    _final_check(env, db, model)
    run(env, db.final_rollback())
    assert ssd.kv.is_empty
    _final_check(env, db, model)
    db.close()
