"""Every batch entry point of the write path equals the per-key loop it
replaced (``tests/write_path_reference.py``): the same state, the same
float CPU ledgers compared with ``==``, and over a whole KVACCEL cell the
same tracer and journal records."""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import write_path_reference as ref  # noqa: E402
from helpers import ftl_map, make_ftl  # noqa: E402

from repro.bench import RunSpec, mini_profile, run_workload  # noqa: E402
from repro.core import MetadataManager  # noqa: E402
from repro.core.metadata import CHECK_COST, DELETE_COST, INSERT_COST  # noqa: E402
from repro.device import (CpuModel, DevLsm, DevLsmConfig, MiB,  # noqa: E402
                          NandArray, NandGeometry)
from repro.lsm import DictMemTable, SkipListMemTable  # noqa: E402
from repro.obs import Journal, Tracer  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.types import KIND_DELETE, ValueRef, encode_key, make_entry  # noqa: E402


def ledger_state(cpu: CpuModel) -> tuple:
    return (cpu.ledger.total_bytes, dict(cpu.ledger._buckets),
            dict(cpu.busy_by_tag))


# -- CpuModel.charge_all ----------------------------------------------------
def test_charge_all_adds_each_cost_in_order():
    rng = random.Random(7)
    env_a, env_b = Environment(), Environment()
    a, b = CpuModel(env_a, cores=2), CpuModel(env_b, cores=2)
    for step in range(200):
        # Cost mixes whose float sum depends on the order of the adds,
        # zero costs (they skip the bucket) and several buckets.
        costs = [rng.choice([0.0, 0.1, 1e-7, 0.45e-6, 15e-6, 1 / 3])
                 for _ in range(rng.randrange(0, 40))]
        tag = rng.choice(["metadata", "devlsm.put", "x"])
        a.charge_all(costs, tag=tag)
        ref.cpu_charge_all(b, costs, tag=tag)
        assert ledger_state(a) == ledger_state(b)
        later = env_a.now + rng.choice([0.0, 0.3, 1.7])
        env_a.run(until=later)
        env_b.run(until=later)
    assert "x" in a.busy_by_tag and len(a.ledger._buckets) > 3


def test_charge_all_empty_or_zero_touches_no_bucket():
    cpu = CpuModel(Environment())
    cpu.charge_all([], tag="none")
    assert cpu.busy_by_tag == {} and cpu.ledger._buckets == {}
    cpu.charge_all([0.0, 0.0], tag="zero")
    assert cpu.busy_by_tag == {"zero": 0.0} and cpu.ledger._buckets == {}


def test_charge_all_stops_at_a_negative_cost_as_the_loop_would():
    a, b = CpuModel(Environment()), CpuModel(Environment())
    with pytest.raises(ValueError):
        a.charge_all([0.5, 0.25, -1.0, 2.0], tag="t")
    with pytest.raises(ValueError):
        ref.cpu_charge_all(b, [0.5, 0.25, -1.0, 2.0], tag="t")
    assert ledger_state(a) == ledger_state(b)


# -- MemTable.add_all -------------------------------------------------------
def _memtable_batches(seed: int) -> list:
    """Batches with overwrites and stale rollback re-inserts (older seq)
    of one entry size; from the tenth batch on also tombstones, and in
    the twentieth ``bytes`` values of another size."""
    rng = random.Random(seed)
    seq, batches = 1000, []
    for b in range(30):
        batch = []
        for _ in range(rng.randrange(1, 40)):
            key = encode_key(rng.randrange(60))
            roll = rng.random()
            if roll < 0.15:         # a rollback's copy of an older write
                batch.append((key, rng.randrange(1, 1000), 1,
                              ValueRef(rng.randrange(99), 4096)))
                continue
            seq += 1
            if b >= 10 and roll < 0.25:
                batch.append(make_entry(key, seq, None, kind=KIND_DELETE))
            elif b == 20 and roll < 0.35:
                batch.append(make_entry(key, seq, b"odd-size"))
            else:
                batch.append(make_entry(key, seq, ValueRef(seq, 4096)))
        batches.append(batch)
    return batches


@pytest.mark.parametrize("seed", range(4))
def test_dict_memtable_add_all_equals_the_per_entry_add(seed):
    fast, slow = DictMemTable(), DictMemTable()
    saw_fixed = False
    for batch in _memtable_batches(seed):
        fast.add_all(batch)
        ref.dict_memtable_add_all(slow, batch)
        assert fast._map == slow._map
        assert fast.approximate_bytes == slow.approximate_bytes
        assert fast.entry_bytes == slow.entry_bytes
        saw_fixed |= fast.entry_bytes is not None
        assert fast.entries() == slow.entries()
    assert saw_fixed and fast.entry_bytes is None   # other sizes cleared it


def test_dict_memtable_size_change_clears_entry_bytes_for_good():
    fast, slow = DictMemTable(), DictMemTable()
    batch = [make_entry(encode_key(1), 1, ValueRef(1, 100)),
             make_entry(encode_key(2), 2, b"x" * 10),
             make_entry(encode_key(2), 3, ValueRef(3, 100))]  # sizes equal again
    fast.add_all(batch)
    ref.dict_memtable_add_all(slow, batch)
    assert fast.entry_bytes is None is slow.entry_bytes
    assert fast.approximate_bytes == slow.approximate_bytes


@pytest.mark.parametrize("seed", range(4))
def test_skiplist_add_all_equals_the_per_entry_add(seed):
    batched, single, model = SkipListMemTable(), SkipListMemTable(), \
        DictMemTable()
    for batch in _memtable_batches(seed):
        batched.add_all(batch)
        for entry in batch:
            single.add(entry)
        ref.dict_memtable_add_all(model, batch)
        assert batched.entries() == single.entries() == model.entries()
        assert batched.approximate_bytes == model.approximate_bytes


# -- DevLsm.put_all ----------------------------------------------------------
def _devlsm(memtable_bytes: int):
    env = Environment()
    g = NandGeometry(channels=1, ways=1, blocks_per_way=64,
                     pages_per_block=16, page_size=4096)
    ftl = make_ftl(g, split_fraction=0.5)
    kv = ftl.region("kv")
    dl = DevLsm(env, ftl, NandArray(env, g, peak_bandwidth=100 * MiB),
                CpuModel(env, cores=1, name="arm"),
                range(kv.lpn_start, kv.lpn_start + kv.lpn_count),
                config=DevLsmConfig(memtable_bytes=memtable_bytes))
    return env, dl


def _devlsm_state(env, dl) -> tuple:
    return (env.now, dl.state_digest(), dict(dl._memtable),
            dl._memtable_bytes, [r.columns for r in dl.runs],
            ledger_state(dl.arm), ftl_map(dl.ftl))


@pytest.mark.parametrize("memtable_bytes", [300, 1000, 1 << 20])
def test_devlsm_put_all_equals_the_per_entry_put(memtable_bytes):
    rng = random.Random(memtable_bytes)
    fast, slow = _devlsm(memtable_bytes), _devlsm(memtable_bytes)
    seq = 0
    for _ in range(25):
        batch = []
        for _ in range(rng.randrange(1, 30)):
            seq += 1
            # A small key space repeats keys inside one batch.
            key = encode_key(rng.randrange(20))
            value = (None if rng.random() < 0.1
                     else b"v" * rng.randrange(1, 90))
            batch.append(make_entry(key, seq, value))
        for (env, dl), put_all in ((fast, DevLsm.put_all),
                                   (slow, ref.devlsm_put_all)):
            env.run(until=env.process(put_all(dl, batch)))
        assert _devlsm_state(*fast) == _devlsm_state(*slow)
    if memtable_bytes < 1 << 20:
        assert fast[1].flush_count > 3       # flushes fell mid-batch


# -- MetadataManager batch verbs ---------------------------------------------
def _metadata_state(md: MetadataManager) -> tuple:
    return (set(md._keys), md.inserts, md.checks, md.deletes,
            ledger_state(md.host_cpu))


def test_metadata_batch_verbs_equal_the_per_key_verbs():
    rng = random.Random(3)
    fast = MetadataManager(CpuModel(Environment()))
    slow = MetadataManager(CpuModel(Environment()))
    for step in range(300):
        keys = [encode_key(rng.randrange(50))
                for _ in range(rng.randrange(0, 20))]
        if rng.random() < 0.5:
            fast.insert_all(keys)
            ref.metadata_insert_all(slow, keys)
        else:
            fast.settle(keys)
            ref.metadata_settle(slow, keys)
        assert _metadata_state(fast) == _metadata_state(slow)
    assert fast.deletes and fast.checks and fast.inserts


def test_settle_stops_once_the_table_is_empty():
    md = MetadataManager(CpuModel(Environment()))
    md.insert_all([b"a"])
    md.settle([b"x", b"a", b"y", b"z"])    # check x, check+delete a, stop
    assert (md.checks, md.deletes) == (2, 1)
    assert md.host_cpu.busy_by_tag["metadata"] == (
        INSERT_COST + CHECK_COST + CHECK_COST + DELETE_COST)
    md.settle([b"a"])                        # empty table: no check at all
    assert md.checks == 2


# -- a whole KVACCEL cell ------------------------------------------------------
def _observed_cell():
    tracer = Tracer()
    profile = mini_profile(256)
    journal = Journal(period=profile.sample_period)
    spec = RunSpec("kvaccel", "A", 1, rollback="eager",
                   duration=profile.duration * 0.1)
    result = run_workload(spec, profile, tracer=tracer, journal=journal)
    return result, tracer.tail(), list(journal.records)


def test_a_kvaccel_cell_records_the_same_with_per_key_writes(monkeypatch):
    batched = _observed_cell()
    for (cls, name), per_key in ref.PER_KEY.items():
        monkeypatch.setattr(cls, name, per_key)
    per_key = _observed_cell()
    result, spans, records = batched
    assert result.extra["redirected_writes"] and result.extra["rollbacks"]
    assert any(s["name"] == "devlsm.put" for s in spans)
    assert result.to_json() == per_key[0].to_json()
    assert spans == per_key[1]
    assert records == per_key[2]
