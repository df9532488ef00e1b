"""Wear-driven NAND error model: program/erase failures, ECC retry tails."""

import pytest

from repro.device import NandArray, NandGeometry, error_model
from repro.device.error_model import NandErrorConfig, NandErrorModel
from repro.device.ftl import Ftl
from repro.resil import MEDIA, TRANSIENT, DeviceError
from repro.sim import Environment


class ScriptedRng:
    """Deterministic stand-in for the model's private Random."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def patch(monkeypatch, **constants):
    """Set error-model constants (``READ_RETRY_ROUNDS=2``, ...) for one
    test."""
    for name, value in constants.items():
        monkeypatch.setattr(error_model, name, value)


def make(config=None, **cfg_kw):
    env = Environment()
    ftl = Ftl(NandGeometry(channels=1, ways=1, blocks_per_way=16,
                           pages_per_block=4, page_size=4096))
    model = NandErrorModel(env, ftl, config or NandErrorConfig(**cfg_kw))
    return env, ftl, model


def run(env, gen):
    out = []

    def wrap():
        out.append((yield from gen))

    env.process(wrap())
    env.run()
    return out[0]


# ----------------------------------------------------------------- wear
def test_wear_interpolates_failure_probability(monkeypatch):
    patch(monkeypatch, PE_CYCLE_LIMIT=100)
    env, ftl, model = make()
    blk = 3
    assert model._prob(0.0, 0.5, blk) == 0.0       # fresh block
    ftl.erase_counts[blk] = 50
    assert model._prob(0.0, 0.5, blk) == pytest.approx(0.25)
    ftl.erase_counts[blk] = 1000                   # past rated life: clamp
    assert model._prob(0.0, 0.5, blk) == pytest.approx(0.5)
    assert model._wear_frac(-1) == 0.0             # no block yet programmed


# ------------------------------------------------------------- program
def test_program_failure_is_transient_at_nand_program(monkeypatch):
    patch(monkeypatch, RETIRE_AFTER_PROGRAM_FAILS=9)
    env, ftl, model = make(program_fail_base=1.0)
    ftl.write(0)
    _, err = model.on_io("program", 4096)
    assert isinstance(err, DeviceError)
    assert err.kind == TRANSIENT
    assert err.site == "nand.program"
    assert model.program_fails == 1


def test_program_fail_streak_retires_block():
    env, ftl, model = make(program_fail_base=1.0)
    ftl.write(0)
    blk = ftl.last_programmed_block
    model.on_io("program", 4096)
    assert model.grown_bad_blocks == 0             # one strike
    model.on_io("program", 4096)
    assert model.grown_bad_blocks == 1             # two strikes: retired
    assert blk in ftl.retired_blocks


def test_success_resets_fail_streak():
    env, ftl, model = make()
    model.rng = ScriptedRng([0.0, 1.0, 0.0, 1.0])  # fail, ok, fail, ok
    model.config = NandErrorConfig(program_fail_base=0.5)
    ftl.write(0)
    for _ in range(4):
        model.on_io("program", 4096)
    assert model.program_fails == 2
    assert model.grown_bad_blocks == 0             # streak never reached 2


def test_allocator_skips_retired_block():
    env, ftl, model = make()
    region = ftl.region("kv")
    bad = region.free_blocks[0]
    ftl.retire_block(bad)
    ftl.write(region.lpn_start)
    assert ftl.last_programmed_block != bad
    assert bad not in region.free_blocks


# --------------------------------------------------------------- erase
def test_erase_failure_masked_but_retires(monkeypatch):
    patch(monkeypatch, ERASE_FAIL_BASE=1.0)
    env, ftl, model = make()
    ftl.last_erased_block = 5
    _, err = model.on_io("erase", 0)
    assert err is None                             # host never sees it
    assert model.erase_fails == 1
    assert 5 in ftl.retired_blocks
    assert model.grown_bad_blocks == 1


# ---------------------------------------------------------------- read
def test_read_retry_adds_latency_rounds(monkeypatch):
    patch(monkeypatch, UNCORRECTABLE_PROB=0.0)
    env, ftl, model = make(read_retry_base=1.0)
    extra, err = model.on_io("read", 4096)
    assert err is None
    assert extra == pytest.approx(3 * 60e-6)
    assert model.read_retry_rounds == 3


def test_read_retry_telemetry_channel(monkeypatch):
    from repro.obs import TelemetryHub

    patch(monkeypatch, READ_RETRY_ROUNDS=2, UNCORRECTABLE_PROB=0.0)
    env = Environment()
    hub = TelemetryHub(env, period=0.001).install(env)
    ftl = Ftl(NandGeometry(channels=1, ways=1, blocks_per_way=16,
                           pages_per_block=4, page_size=4096))
    model = NandErrorModel(env, ftl, NandErrorConfig(read_retry_base=1.0))
    model.on_io("read", 4096)
    assert "nand.read_retries" in hub.channels


def test_exhausted_retries_can_go_uncorrectable(monkeypatch):
    patch(monkeypatch, READ_RETRY_ROUNDS=2, UNCORRECTABLE_PROB=1.0)
    env, ftl, model = make(read_retry_base=1.0)
    extra, err = model.on_io("read", 4096)
    assert extra == pytest.approx(2 * error_model.READ_RETRY_LATENCY)
    assert isinstance(err, DeviceError)
    assert err.kind == MEDIA
    assert err.site == "nand.read"
    assert model.uncorrectable_reads == 1


def test_clean_read_costs_nothing():
    env, ftl, model = make(read_retry_base=0.0)
    assert model.on_io("read", 4096) == (0.0, None)


# --------------------------------------------------- NandArray plumbing
def test_nand_array_defaults_to_no_error_model():
    env = Environment()
    nand = NandArray(env, NandGeometry())
    assert nand.error_model is None
    run(env, nand.io("program", 4096))             # unchanged happy path


def test_nand_array_raises_after_service_time(monkeypatch):
    patch(monkeypatch, RETIRE_AFTER_PROGRAM_FAILS=99)
    env = Environment()
    geometry = NandGeometry(channels=1, ways=1, blocks_per_way=16,
                            pages_per_block=4, page_size=4096)
    nand = NandArray(env, geometry)
    ftl = Ftl(geometry)
    nand.error_model = NandErrorModel(env, ftl, NandErrorConfig(
        program_fail_base=1.0))
    ftl.write(0)

    caught = []

    def proc():
        try:
            yield from nand.io("program", 4096)
        except DeviceError as exc:
            caught.append((env.now, exc))

    env.process(proc())
    env.run()
    (t, exc), = caught
    assert exc.kind == TRANSIENT
    # The failing command still occupied the media for its service time.
    assert t == pytest.approx(nand.service_time("program", 4096))
    assert nand.busy_time > 0


def test_nand_array_read_latency_tail(monkeypatch):
    patch(monkeypatch, UNCORRECTABLE_PROB=0.0)
    env = Environment()
    geometry = NandGeometry(channels=1, ways=1, blocks_per_way=16,
                            pages_per_block=4, page_size=4096)
    nand = NandArray(env, geometry)
    ftl = Ftl(geometry)
    cfg = NandErrorConfig(read_retry_base=1.0)
    nand.error_model = NandErrorModel(env, ftl, cfg)
    run(env, nand.io("read", 4096))
    assert env.now == pytest.approx(
        nand.service_time("read", 4096) + 3 * error_model.READ_RETRY_LATENCY)


# ------------------------------------------------------------- plumbing
def test_snapshot_shape(monkeypatch):
    patch(monkeypatch, ERASE_FAIL_BASE=1.0)
    env, ftl, model = make()
    ftl.last_erased_block = 2
    model.on_io("erase", 0)
    snap = model.snapshot()
    assert snap["erase_fails"] == 1
    assert snap["grown_bad_blocks"] == 1
    assert snap["retired_blocks"] == [2]
    assert set(snap) == {"program_fails", "erase_fails", "read_retry_rounds",
                         "uncorrectable_reads", "grown_bad_blocks",
                         "retired_blocks"}


def test_seeded_draws_are_deterministic():
    _, _, a = make(NandErrorConfig(seed=99))
    _, _, b = make(NandErrorConfig(seed=99))
    assert [a.rng.random() for _ in range(8)] == \
           [b.rng.random() for _ in range(8)]


def test_seed_falls_back_to_fault_registry():
    from repro.faults.registry import FaultRegistry

    env = Environment()
    FaultRegistry(seed=1234).install(env)
    ftl = Ftl(NandGeometry(channels=1, ways=1, blocks_per_way=16,
                           pages_per_block=4, page_size=4096))
    model = NandErrorModel(env, ftl)
    import random
    assert model.rng.random() == random.Random("1234:nand-errors").random()


def test_config_validation():
    with pytest.raises(ValueError):
        NandErrorConfig(program_fail_base=1.5)
    with pytest.raises(ValueError):
        NandErrorConfig(read_retry_base=-0.1)
