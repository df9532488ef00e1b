"""Tests for KVACCEL's ACID claims (paper Section V-G).

The paper argues the dual-interface design preserves database semantics:

* Atomicity — interface operations are independent; partial rollbacks are
  cleaned up (the rollback either merges a pair or the pair stays in the
  Dev-LSM; nothing half-applied is visible).
* Consistency — metadata tracking routes every read/write correctly,
  through interface transitions.
* Isolation — range queries run on per-interface iterators and are not
  corrupted by concurrent writes.
* Durability — a redirected write is durable in NAND the moment its KV
  PUT completes: crashes and rollbacks never lose it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_kvaccel  # noqa: E402

from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402


@pytest.fixture
def stack():
    env = Environment()
    db, ssd, cpu = small_kvaccel(env, rollback="disabled")
    db.detector.stop()
    yield env, db, ssd
    db.close()


class TestAtomicity:
    def test_rollback_never_exposes_partial_state(self, stack):
        """Reads issued while a rollback is mid-flight must return either
        the Dev-LSM copy or the merged Main-LSM copy — never nothing."""
        env, db, ssd = stack
        db.detector.stall_condition = True

        def load():
            for i in range(400):
                yield from db.put(encode_key(i), b"r-%d" % i)
            db.detector.stall_condition = False
        run(env, load())

        observed = []

        def reader():
            # sample reads while the rollback below progresses
            for _ in range(50):
                v = yield from db.get(encode_key(123))
                observed.append(v)
                yield env.timeout(1e-4)

        rp = env.process(db.rollback_manager.rollback_once())
        env.process(reader())
        env.run(until=rp)
        env.run(until=env.now + 0.01)
        assert all(v == b"r-123" for v in observed if v is not None)
        assert all(v is not None for v in observed)

    def test_interrupted_state_is_recoverable(self, stack):
        """Even if rollback never runs, all data is reachable (nothing is
        'in between' interfaces)."""
        env, db, ssd = stack
        db.detector.stall_condition = True
        run(env, db.put(encode_key(1), b"v1"))
        db.detector.stall_condition = False
        assert run(env, db.get(encode_key(1))) == b"v1"


class TestConsistency:
    def test_interface_transitions_keep_newest(self, stack):
        env, db, ssd = stack
        key = encode_key(9)
        history = []
        for round_ in range(6):
            db.detector.stall_condition = round_ % 2 == 0
            v = b"gen-%d" % round_
            run(env, db.put(key, v))
            history.append(v)
            assert run(env, db.get(key)) == history[-1]
        db.detector.stall_condition = False
        run(env, db.final_rollback())
        run(env, db.wait_for_quiesce())
        assert run(env, db.get(key)) == history[-1]

    def test_metadata_agrees_with_devlsm(self, stack):
        env, db, ssd = stack
        db.detector.stall_condition = True
        for i in range(50):
            run(env, db.put(encode_key(i), b"d"))
        db.detector.stall_condition = False
        for i in range(0, 50, 2):  # half overwritten via Main-LSM
            run(env, db.put(encode_key(i), b"m"))
        assert len(db.metadata) == 25
        assert all(encode_key(i) in db.metadata for i in range(1, 50, 2))


class TestIsolation:
    def test_scan_not_corrupted_by_concurrent_writes(self, stack):
        """A range query interleaved with writes must return a sorted,
        duplicate-free view where every value was current at some point."""
        env, db, ssd = stack
        valid = {}
        for i in range(200):
            run(env, db.put(encode_key(i), b"v0-%d" % i))
            valid[encode_key(i)] = {b"v0-%d" % i}

        scan_result = []

        def scanner():
            out = yield from db.scan(encode_key(0), 200)
            scan_result.append(out)

        def writer():
            for i in range(0, 200, 3):
                db.detector.stall_condition = i % 2 == 0
                v = b"v1-%d" % i
                yield from db.put(encode_key(i), v)
                valid[encode_key(i)].add(v)
            db.detector.stall_condition = False

        sp = env.process(scanner())
        env.process(writer())
        env.run(until=sp)
        env.run(until=env.now + 0.05)
        out = scan_result[0]
        keys = [k for k, _ in out]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))
        for k, v in out:
            assert v in valid[k], k

    def test_concurrent_scans_dont_interfere(self, stack):
        env, db, ssd = stack
        db.detector.stall_condition = True
        for i in range(100):
            run(env, db.put(encode_key(i), b"x-%d" % i))
        db.detector.stall_condition = False

        results = []

        def scanner(start):
            out = yield from db.scan(encode_key(start), 20)
            results.append((start, out))

        procs = [env.process(scanner(s)) for s in (0, 25, 50)]
        env.run(until=env.all_of(procs))
        for start, out in results:
            assert [k for k, _ in out] == \
                [encode_key(k) for k in range(start, start + 20)]


class TestDurability:
    def test_redirected_writes_survive_metadata_crash(self, stack):
        env, db, ssd = stack
        db.detector.stall_condition = True
        for i in range(100):
            run(env, db.put(encode_key(i), b"durable-%d" % i))
        db.detector.stall_condition = False
        # crash wipes the volatile index; NAND still holds the pairs
        report = run(env, db.recover())
        assert report.entries == 100
        run(env, db.wait_for_quiesce())
        for i in (0, 50, 99):
            assert run(env, db.get(encode_key(i))) == b"durable-%d" % i

    def test_rollback_then_host_crash_loses_nothing_durable(self, stack):
        """Two-stage commit (V-G): data lands in Dev-LSM NAND first, then
        merges to Main-LSM.  After rollback + WAL sync + host crash, every
        pair must still be readable."""
        env, db, ssd = stack
        db.detector.stall_condition = True
        for i in range(200):
            run(env, db.put(encode_key(i), b"p-%d" % i))
        db.detector.stall_condition = False
        run(env, db.final_rollback())
        run(env, db.main.wal.sync())
        run(env, db.main.crash_and_recover())
        run(env, db.wait_for_quiesce())
        for i in (0, 100, 199):
            assert run(env, db.get(encode_key(i))) == b"p-%d" % i

    def test_unrolled_devlsm_survives_host_crash(self, stack):
        """Pairs still sitting in the Dev-LSM are independent of the host
        LSM's volatile state: a host crash + recovery must not drop them."""
        env, db, ssd = stack
        db.detector.stall_condition = True
        for i in range(150):
            run(env, db.put(encode_key(i), b"q-%d" % i))
        db.detector.stall_condition = False
        assert not ssd.kv.is_empty
        run(env, db.main.crash_and_recover())
        # metadata (volatile) also gone in a real crash: recover it too
        run(env, db.recover())
        run(env, db.wait_for_quiesce())
        for i in (0, 75, 149):
            assert run(env, db.get(encode_key(i))) == b"q-%d" % i
