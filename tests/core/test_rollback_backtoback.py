"""Back-to-back write stalls: a second stall arriving mid-rollback.

Paper Section V-D: while a rollback is merging Dev-LSM entries back into
the Main-LSM, redirection is suspended — a fresh stall verdict must not
start routing writes to the device that is about to be reset.  These
tests drive that window explicitly (daemons stopped, stall verdict set by
hand) and check that no write is lost across two full stall/rollback
cycles, for both rollback schemes.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_kvaccel  # noqa: E402

from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402


def _val(tag, i):
    return (b"%s:%04d;" % (tag, i)) * 20


@pytest.mark.parametrize("scheme", ["eager", "lazy"])
def test_second_stall_mid_rollback_loses_nothing(scheme):
    env = Environment()
    db, ssd, cpu = small_kvaccel(env, rollback=scheme)
    db.detector.stop()
    db.rollback_manager.stop()
    model = {}

    def put(i, tag):
        key = encode_key(i)
        model[key] = _val(tag, i)
        yield from db.put(key, model[key])

    def driver():
        # First stall: a burst of redirected writes lands in the Dev-LSM.
        db.detector.stall_condition = True
        for i in range(30):
            yield from put(i, b"first")
        db.detector.stall_condition = False

        # Kick off the first rollback concurrently and catch it mid-merge.
        rb = env.process(db.rollback_manager.rollback_once())
        while not db.controller.rollback_in_progress:
            yield env.timeout(0.0002)

        # Second stall arrives while the merge is still running.  With
        # redirection suspended these overwrites must take the normal
        # Main-LSM path — and must not be shadowed by the older values
        # the rollback is merging at the same time.
        db.detector.stall_condition = True
        assert db.controller.rollback_in_progress
        for i in range(10, 40):
            yield from put(i, b"mid")
        assert ssd.kv.lost_commands == 0

        yield rb
        # Still stalled, rollback done: redirection resumes for new writes.
        for i in range(5, 25):
            yield from put(i, b"second")
        assert len(db.metadata) > 0

        db.detector.stall_condition = False
        yield from db.rollback_manager.rollback_once()

        for key, want in sorted(model.items()):
            got = yield from db.get(key)
            assert got == want, key

    run(env, driver())
    assert db.rollback_manager.rollback_count == 2
    assert sum(r.entries for r in db.rollback_manager.records) > 0
    assert ssd.kv.is_empty
    assert len(db.metadata) == 0
    db.close()


@pytest.mark.parametrize("scheme", ["eager", "lazy"])
def test_immediate_restall_after_rollback_completes(scheme):
    """Two complete stall/rollback cycles with zero gap between them."""
    env = Environment()
    db, ssd, cpu = small_kvaccel(env, rollback=scheme)
    db.detector.stop()
    db.rollback_manager.stop()
    model = {}

    def cycle(base, tag):
        db.detector.stall_condition = True
        for i in range(base, base + 20):
            key = encode_key(i % 25)          # overlapping key range
            model[key] = _val(tag, i)
            yield from db.put(key, model[key])
        db.detector.stall_condition = False
        yield from db.rollback_manager.rollback_once()

    def driver():
        yield from cycle(0, b"one")
        yield from cycle(10, b"two")
        for key, want in sorted(model.items()):
            got = yield from db.get(key)
            assert got == want, key

    run(env, driver())
    assert db.rollback_manager.rollback_count == 2
    assert ssd.kv.is_empty
    assert len(db.metadata) == 0
    db.close()
