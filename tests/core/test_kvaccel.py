"""Integration tests for the assembled KVACCEL stack."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_kvaccel, small_options  # noqa: E402

from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402


def fill(env, db, n, vlen=64, start=0, prefix=b"v"):
    def gen():
        for i in range(start, start + n):
            yield from db.put(encode_key(i), prefix + b"-%d" % i + b"x" * vlen)
    run(env, gen())


def test_put_get_roundtrip_no_stall():
    env = Environment()
    db, ssd, _ = small_kvaccel(env)
    fill(env, db, 20)
    assert run(env, db.get(encode_key(7))) is not None
    assert db.controller.normal_writes == 20
    assert db.controller.redirected_writes == 0
    db.close()


def test_redirection_happens_under_pressure():
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="disabled")
    fill(env, db, 4000)
    assert db.controller.redirected_writes > 0, \
        "small memtable + slow flush must trigger redirection"
    db.close()


def test_redirected_keys_readable_from_dev():
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="disabled")
    fill(env, db, 4000)
    # every key readable regardless of which interface holds it
    for k in (0, 1000, 2500, 3999):
        got = run(env, db.get(encode_key(k)))
        assert got is not None, k
    assert len(db.metadata) > 0
    assert db.controller.dev_reads >= 0
    db.close()


def test_all_keys_correct_value_after_mixed_routing():
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="disabled")
    fill(env, db, 3000)
    fill(env, db, 3000, prefix=b"w")  # overwrite everything
    for k in (0, 1234, 2999):
        got = run(env, db.get(encode_key(k)))
        assert got.startswith(b"w-"), k
    db.close()


def test_eager_rollback_drains_devlsm():
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="eager")
    fill(env, db, 4000)
    run(env, db.wait_for_quiesce())
    # let the rollback manager observe the calm and finish
    env.run(until=env.now + 1.0)
    assert db.rollback_manager.rollback_count > 0
    assert ssd.kv.is_empty
    assert len(db.metadata) == 0
    # all data must now be served by Main-LSM with correct values
    for k in (0, 2000, 3999):
        assert run(env, db.get(encode_key(k))) is not None, k
    db.close()


def test_lazy_rollback_waits_for_quiet():
    env = Environment()
    from repro.core import RollbackConfig
    db, ssd, _ = small_kvaccel(
        env, rollback=RollbackConfig(scheme="lazy", quiet_window=0.2))
    fill(env, db, 4000)
    redirected = db.controller.redirected_writes
    if redirected == 0:
        pytest.skip("no redirection in this configuration")
    # immediately after the workload there has been no quiet window yet
    rollbacks_immediately = db.rollback_manager.rollback_count
    env.run(until=env.now + 1.0)  # quiet period passes
    assert db.rollback_manager.rollback_count >= rollbacks_immediately
    assert ssd.kv.is_empty
    db.close()


def test_disabled_rollback_keeps_devlsm_until_final():
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="disabled")
    fill(env, db, 4000)
    env.run(until=env.now + 0.5)
    assert db.rollback_manager.rollback_count == 0
    if not ssd.kv.is_empty:
        run(env, db.final_rollback())
        assert ssd.kv.is_empty
        assert db.rollback_manager.rollback_count == 1
    db.close()


def test_delete_routed_and_effective():
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="eager")
    fill(env, db, 100)
    run(env, db.delete(encode_key(5)))
    assert run(env, db.get(encode_key(5))) is None
    assert run(env, db.get(encode_key(6))) is not None
    db.close()


def test_scan_merges_both_interfaces():
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="disabled")
    fill(env, db, 3000)
    out = run(env, db.scan(encode_key(100), 50))
    keys = [k for k, _ in out]
    assert keys == [encode_key(k) for k in range(100, 150)]
    db.close()


def test_scan_sees_redirected_overwrites():
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="disabled")
    fill(env, db, 3000)
    if db.controller.redirected_writes == 0:
        pytest.skip("no redirection")
    # redirected keys must surface their latest value in scans
    out = run(env, db.scan(encode_key(0), 200))
    for key, value in out:
        if key in db.metadata:
            assert value is not None
    db.close()


def test_recovery_restores_consistency():
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="disabled")
    fill(env, db, 4000)
    if ssd.kv.is_empty:
        pytest.skip("nothing redirected")
    n_dev = ssd.kv.entry_count
    report = run(env, db.recover())
    assert report.entries > 0
    assert report.elapsed > 0
    assert ssd.kv.is_empty
    assert len(db.metadata) == 0
    for k in (0, 2000, 3999):
        assert run(env, db.get(encode_key(k))) is not None
    db.close()


def test_recovery_does_not_resurrect_stale_values():
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="disabled")
    fill(env, db, 3000)                 # some keys redirected
    fill(env, db, 3000, prefix=b"w")    # overwrites, some through main
    run(env, db.recover())
    run(env, db.wait_for_quiesce())
    for k in (0, 1500, 2999):
        got = run(env, db.get(encode_key(k)))
        assert got is not None and got.startswith(b"w-"), k
    db.close()


def test_kvaccel_vs_reference_model_random_ops():
    import random
    env = Environment()
    db, ssd, _ = small_kvaccel(env, rollback="eager")
    rng = random.Random(99)
    model = {}

    def gen():
        for i in range(3000):
            k = rng.randrange(400)
            op = rng.random()
            if op < 0.8:
                v = b"val-%d-%d" % (k, i) + b"x" * 40
                yield from db.put(encode_key(k), v)
                model[k] = v
            elif op < 0.9:
                yield from db.delete(encode_key(k))
                model.pop(k, None)
            else:
                got = yield from db.get(encode_key(k))
                assert got == model.get(k), f"key {k} at op {i}"

    run(env, gen())
    for k in range(400):
        assert run(env, db.get(encode_key(k))) == model.get(k), k
    db.close()


def test_snapshot_shape():
    env = Environment()
    db, ssd, _ = small_kvaccel(env)
    fill(env, db, 100)
    snap = db.snapshot()
    for key in ("redirected_writes", "normal_writes", "devlsm_entries",
                "metadata_keys", "rollbacks", "detector_stall"):
        assert key in snap
    db.close()


def test_slowdown_disabled_by_default():
    env = Environment()
    db, _, _ = small_kvaccel(env, options=small_options(slowdown_enabled=True))
    assert db.main.options.slowdown_enabled is False
    db.close()
