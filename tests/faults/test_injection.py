"""Injection behaviour through the live stack: FAIL, DELAY, DROP, DUPLICATE."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import make_faulty_system, run  # noqa: E402

from repro.faults import (  # noqa: E402
    DROP,
    DUPLICATE,
    AlwaysPlan,
    DifferentialOracle,
    FaultAction,
    InjectedFault,
    NthOccurrencePlan,
)
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402

VALUE = b"value-" * 30


def _quiet(db):
    """Manual stall control: the polling daemons would overwrite it."""
    db.detector.stop()
    db.rollback_manager.stop()


def test_injected_fail_surfaces_to_the_caller():
    env = Environment()
    db, ssd, cpu, reg = make_faulty_system(env)
    _quiet(db)
    db.detector.stall_condition = True
    reg.arm("kv.put_batch.submit", NthOccurrencePlan(1), FaultAction())

    def driver():
        yield from db.put(encode_key(1), VALUE)

    with pytest.raises(InjectedFault) as exc:
        run(env, driver())
    assert exc.value.site == "kv.put_batch.submit"
    db.close()


def test_injected_nand_failure_surfaces_through_the_write_path():
    env = Environment()
    db, ssd, cpu, reg = make_faulty_system(env)
    _quiet(db)
    reg.arm("nand.program", NthOccurrencePlan(1), FaultAction())

    def driver():
        # Enough writes to fill a WAL commit group and hit the device.
        for i in range(40):
            yield from db.put(encode_key(i), VALUE)

    with pytest.raises(InjectedFault):
        run(env, driver())
    db.close()


def test_delay_fault_stretches_latency_but_not_results():
    def drive(arm_delay):
        env = Environment()
        db, ssd, cpu, reg = make_faulty_system(env)
        _quiet(db)
        if arm_delay:
            reg.arm("db.write.gate", AlwaysPlan(),
                    FaultAction(kind="delay", delay=0.01))

        def driver():
            for i in range(20):
                yield from db.put(encode_key(i), VALUE)
            out = []
            for i in range(20):
                got = yield from db.get(encode_key(i))
                out.append(got)
            return out

        values = run(env, driver())
        elapsed = env.now
        db.close()
        return values, elapsed

    clean_values, clean_t = drive(arm_delay=False)
    slow_values, slow_t = drive(arm_delay=True)
    assert slow_values == clean_values   # timing faults never alter data
    assert slow_t > clean_t


def test_dropped_kv_command_loses_the_acked_write_and_is_detected():
    env = Environment()
    db, ssd, cpu, reg = make_faulty_system(env)
    _quiet(db)
    key = encode_key(5)
    oracle = DifferentialOracle(seed=reg.seed)

    def driver():
        oracle.begin_put(key, b"old-" * 20)
        yield from db.put(key, b"old-" * 20)
        oracle.ack()
        db.detector.stall_condition = True
        reg.arm("kv.put_batch.submit", NthOccurrencePlan(1),
                FaultAction(kind=DROP))
        oracle.begin_put(key, b"new-" * 20)
        yield from db.put(key, b"new-" * 20)   # acked, but silently lost
        oracle.ack()
        got = yield from db.get(key)
        return got

    got = run(env, driver())
    assert ssd.kv.lost_commands == 1
    # The device still serves the stale value; the differential oracle is
    # what catches the lost acknowledged write.
    with pytest.raises(AssertionError) as exc:
        oracle.check_read(key, got)
    assert f"{reg.seed:#x}" in str(exc.value)   # failure names its seed
    db.close()


def test_duplicated_kv_command_is_tolerated():
    env = Environment()
    db, ssd, cpu, reg = make_faulty_system(env)
    _quiet(db)
    key = encode_key(9)

    def driver():
        db.detector.stall_condition = True
        reg.arm("kv.put_batch.submit", NthOccurrencePlan(1),
                FaultAction(kind=DUPLICATE))
        yield from db.put(key, VALUE)
        got_stalled = yield from db.get(key)
        db.detector.stall_condition = False
        yield from db.rollback_manager.rollback_once()
        got_after = yield from db.get(key)
        return got_stalled, got_after

    got_stalled, got_after = run(env, driver())
    assert ssd.kv.duplicated_commands == 1
    # Same (key, seq) applied twice is idempotent: reads are unaffected
    # and the rollback still drains the Dev-LSM completely.
    assert got_stalled == VALUE
    assert got_after == VALUE
    assert ssd.kv.is_empty
    assert len(db.metadata) == 0
    db.close()


def test_registry_counters_follow_the_workload():
    env = Environment()
    db, ssd, cpu, reg = make_faulty_system(env, record_trace=True)
    _quiet(db)

    def driver():
        for i in range(30):
            yield from db.put(encode_key(i), VALUE)
        got = yield from db.get(encode_key(3))
        assert got == VALUE

    run(env, driver())
    db.close()
    assert reg.hits["ctl.put.normal"] == 30
    assert reg.hits["db.write.applied"] == 30
    assert reg.hits["wal.append"] == 30
    assert sum(reg.hits.values()) == len(reg.trace)
    assert reg.injected == []            # nothing armed: pure observation
