"""Tests for the ADOC baseline: tuner policy and DB integration."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_device, small_options  # noqa: E402

from repro.adoc import AdocDb, AdocTunerConfig  # noqa: E402
from repro.adoc import tuner as tuner_mod  # noqa: E402
from repro.device import CpuModel  # noqa: E402
from repro.lsm import LsmOptions  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import encode_key  # noqa: E402


def make_adoc(env, options=None, tuner=None):
    cpu = CpuModel(env, cores=8, name="host")
    dev = small_device(env)
    db = AdocDb(env, options or small_options(), dev, cpu, tuner_config=tuner)
    return db, cpu


def fill(env, db, n, vlen=64):
    def gen():
        for i in range(n):
            yield from db.put(encode_key(i), b"v" + b"x" * vlen)
    run(env, gen())


def test_adoc_is_a_functional_db():
    env = Environment()
    db, _ = make_adoc(env)
    fill(env, db, 500)
    assert run(env, db.get(encode_key(100))) is not None
    db.close()


def test_options_are_private_copy():
    env = Environment()
    opts = small_options()
    db, _ = make_adoc(env, opts)
    db.options.max_background_compactions = 5
    assert opts.max_background_compactions == 1
    db.close()


def test_tuner_escalates_under_pressure():
    env = Environment()
    tuner_cfg = AdocTunerConfig(interval=0.005, max_compaction_threads=4)
    db, _ = make_adoc(env, tuner=tuner_cfg)
    base_threads = db.tuner.base_threads
    fill(env, db, 6000)
    escalations = [a for a in db.tuner.actions if a.kind == "escalate"]
    assert escalations, "sustained pressure must trigger escalation"
    assert max(a.threads for a in escalations) > base_threads
    db.close()


def test_tuner_decays_after_calm(monkeypatch):
    monkeypatch.setattr(tuner_mod, "CALM_STEPS_TO_DECAY", 2)
    env = Environment()
    tuner_cfg = AdocTunerConfig(interval=0.005)
    db, _ = make_adoc(env, tuner=tuner_cfg)
    fill(env, db, 6000)
    run(env, db.wait_for_quiesce())
    env.run(until=env.now + 0.2)  # calm period
    if any(a.kind == "escalate" for a in db.tuner.actions):
        assert any(a.kind == "decay" for a in db.tuner.actions)
        assert db.options.max_background_compactions == db.tuner.base_threads
        assert db.options.write_buffer_size == db.tuner.base_buffer
    db.close()


def test_tuner_respects_caps(monkeypatch):
    monkeypatch.setattr(tuner_mod, "MAX_BUFFER_MULTIPLIER", 2)
    env = Environment()
    tuner_cfg = AdocTunerConfig(interval=0.005, max_compaction_threads=3)
    db, _ = make_adoc(env, tuner=tuner_cfg)
    fill(env, db, 8000)
    assert db.options.max_background_compactions <= 3
    assert db.options.write_buffer_size <= db.tuner.base_buffer * 2
    db.close()


def test_tuner_charges_monitor_cpu():
    env = Environment()
    tuner_cfg = AdocTunerConfig(interval=0.01)
    db, cpu = make_adoc(env, tuner=tuner_cfg)
    env.run(until=0.5)
    assert cpu.busy_by_tag.get("adoc-tuner", 0) > 0
    db.close()


def test_adoc_still_uses_slowdowns(monkeypatch):
    """The paper's point: ADOC falls back to slowdown as a last resort."""
    monkeypatch.setattr(LsmOptions, "max_write_buffer_number", 8)
    env = Environment()
    opts = small_options(
        slowdown_enabled=True,
        level0_file_num_compaction_trigger=2,
        level0_slowdown_writes_trigger=3,
        level0_stop_writes_trigger=6,
        delayed_write_rate=256 * 1024,
    )
    db, _ = make_adoc(env, opts, tuner=AdocTunerConfig(interval=0.005))
    fill(env, db, 6000)
    assert db.write_controller.slowdown_events >= 1
    db.close()


def test_more_threads_speed_up_backlog_drain():
    """Escalated thread count must let compactions run concurrently."""
    env = Environment()
    tuner_cfg = AdocTunerConfig(interval=0.002, max_compaction_threads=4)
    db, _ = make_adoc(env, tuner=tuner_cfg)
    fill(env, db, 8000)
    run(env, db.wait_for_quiesce())
    assert db.stats.compactions > 0
    db.close()
