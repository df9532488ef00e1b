"""Latency-lineage profiler: unit semantics + acceptance numbers.

Three layers:

* unit — the leaf-stack attribution on synthetic processes (nesting,
  residual, dangling frames, determinism of exemplar selection);
* integration — real cells through ``run_workload``: the stall-heavy
  fig02-style cell must attribute >=50% of its p99-bucket latency to
  stall while the fig11 KVACCEL cell attributes <10%, and every op's
  segments must sum to its end-to-end latency (the partition invariant);
* no-op guard — lineage probes read the sim clock but never schedule
  events, so a fully-instrumented run reproduces the pinned golden
  fig11 trajectory bit-identically.
"""

import json
from pathlib import Path

import pytest

from repro.bench import RunSpec, mini_profile, run_workload
from repro.obs import (
    LineageProfiler,
    check_lineage_invariant,
    lineage_report,
    percentile_bands,
    profiler,
)
from repro.sim import Environment

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden_fig11_cell.json"


# -- unit: leaf-stack attribution -------------------------------------------

def test_nested_segments_partition_e2e():
    env = Environment()
    lp = LineageProfiler(env).install()

    def op():
        ctx = lp.op_begin("put_batch", count=4, nbytes=100)
        try:
            yield env.timeout(1.0)          # before any segment
            lp.enter("wal")
            yield env.timeout(2.0)
            lp.enter("nand")                # wal paused while nand runs
            yield env.timeout(3.0)
            lp.leave()
            yield env.timeout(4.0)          # wal resumes
            lp.leave()
        finally:
            lp.op_end(ctx)

    env.process(op(), name="w")
    env.run()
    assert lp.op_count == 1
    rec = lp.ops[0]
    assert rec["e2e"] == pytest.approx(10.0)
    assert rec["segs"]["wal"] == pytest.approx(6.0)
    assert rec["segs"]["nand"] == pytest.approx(3.0)
    assert rec["segs"]["unattributed"] == pytest.approx(1.0)
    assert rec["count"] == 4 and rec["nbytes"] == 100
    assert check_lineage_invariant(lp.ops) == []
    assert lp.invariant_violations == 0


def test_dangling_frames_drained_at_op_end():
    env = Environment()
    lp = LineageProfiler(env).install()

    def op():
        ctx = lp.op_begin("get")
        lp.enter("stall")
        yield env.timeout(5.0)
        # leave() never called: op_end must drain the open frame.
        lp.op_end(ctx)

    env.process(op(), name="r")
    env.run()
    rec = lp.ops[0]
    assert rec["segs"]["stall"] == pytest.approx(5.0)
    assert check_lineage_invariant(lp.ops) == []


def test_no_nested_ops_per_process():
    env = Environment()
    lp = LineageProfiler(env).install()
    seen = []

    def op():
        ctx = lp.op_begin("put_batch")
        inner = lp.op_begin("get")          # already open: must be a no-op
        seen.append(inner)
        yield env.timeout(1.0)
        assert lp.op_end(inner) is None
        lp.op_end(ctx)

    env.process(op(), name="w")
    env.run()
    assert seen == [None]
    assert lp.op_count == 1


def test_op_begin_outside_process_is_noop():
    env = Environment()
    lp = LineageProfiler(env).install()
    assert lp.op_begin("put_batch") is None     # no active process
    assert lp.op_end(None) is None
    assert lp.op_count == 0


def test_enter_leave_without_open_op_is_noop():
    env = Environment()
    lp = LineageProfiler(env).install()

    def proc():
        lp.enter("wal")                     # no op open: ignored
        yield env.timeout(1.0)
        lp.leave()

    env.process(proc(), name="p")
    env.run()
    assert lp.op_count == 0


def test_percentile_bands_slicing():
    ops = [{"op_id": i, "kind": "put_batch", "scope": "db", "count": 1,
            "nbytes": 0, "t0": 0.0, "e2e": float(i + 1),
            "segs": {"stall": float(i + 1), "unattributed": 0.0}}
           for i in range(100)]
    bands = percentile_bands(ops)
    assert [b["n"] for b in bands] == [50, 40, 9, 1]
    tail = bands[-1]
    assert tail["band"] == "p99-p100"
    assert tail["mean_e2e"] == pytest.approx(100.0)
    assert tail["shares"]["stall"] == pytest.approx(1.0)
    assert sum(b["n"] for b in bands) == len(ops)


def test_exemplar_selection_is_topk_and_ordered(monkeypatch):
    monkeypatch.setattr(profiler, "TOP_K", 3)
    env = Environment()
    lp = LineageProfiler(env).install()

    def op(d):
        ctx = lp.op_begin("put_batch")
        yield env.timeout(d)
        lp.op_end(ctx)

    def driver():
        for d in [5.0, 1.0, 9.0, 3.0, 9.0, 7.0]:
            yield env.process(op(d))

    env.process(driver(), name="drv")
    env.run()
    ex = lp.exemplars()
    assert [e["e2e"] for e in ex] == [9.0, 9.0, 7.0]
    # ties broken toward the earlier op id, slowest-first output
    assert [e["e2e"] for e in ex] == sorted(
        [e["e2e"] for e in ex], reverse=True)
    assert all("spans" in e for e in ex)


# -- integration: real cells -----------------------------------------------

def test_stall_heavy_invariant_and_p99_attribution():
    # Fig02-style stall-heavy cell: RocksDB without the slowdown valve.
    result = run_workload(RunSpec("rocksdb", "A", 1, slowdown=False),
                          mini_profile(128), lineage=True)
    lin = result.extra["lineage"]
    assert lin["op_count"] > 100
    assert lin["invariant_violations"] == 0
    assert check_lineage_invariant(lin["ops"]) == []
    bands = percentile_bands(lin["ops"])
    tail = bands[-1]
    assert tail["band"] == "p99-p100"
    # The acceptance number: a write-stall-bound run must pin its tail
    # latency on the stall segment, not spread it around.
    assert tail["shares"].get("stall", 0.0) >= 0.5
    # ... and the report renders without blowing up.
    assert "p99-p100" in lineage_report(lin["ops"],
                                        exemplars=lin["exemplars"])


def test_fig11_kvaccel_tail_not_stall_bound():
    result = run_workload(RunSpec("kvaccel", "A", 1, rollback="disabled"),
                          mini_profile(128), lineage=True)
    lin = result.extra["lineage"]
    assert lin["invariant_violations"] == 0
    tail = percentile_bands(lin["ops"])[-1]
    # KVACCEL's redirect absorbs the pressure window: stall must be a
    # rounding error in the tail, not the story.
    assert tail["shares"].get("stall", 0.0) < 0.10


def test_exemplar_determinism_across_runs():
    spec = RunSpec("rocksdb", "A", 1, slowdown=False)
    runs = [run_workload(spec, mini_profile(64), lineage=True)
            for _ in range(2)]
    ids = [[e["op_id"] for e in r.extra["lineage"]["exemplars"]]
           for r in runs]
    e2es = [[e["e2e"] for e in r.extra["lineage"]["exemplars"]]
            for r in runs]
    assert ids[0] == ids[1]
    assert e2es[0] == e2es[1]
    assert len(ids[0]) > 0


def test_cluster_cells_record_per_shard_scopes():
    result = run_workload(
        RunSpec("cluster", "A", 1, rollback="disabled", shards=2),
        mini_profile(64), lineage=True)
    lin = result.extra["lineage"]
    scopes = {r["scope"] for r in lin["ops"]}
    assert "cluster.shard0" in scopes and "cluster.shard1" in scopes
    assert check_lineage_invariant(lin["ops"]) == []


# -- no-op guard ------------------------------------------------------------

def test_disabled_profilers_leave_no_residue():
    result = run_workload(RunSpec("rocksdb", "A", 1), mini_profile(64))
    assert "lineage" not in result.extra
    assert "kernel_profile" not in result.extra
    env = Environment()
    assert env.lineage is None and env._observer is None


def test_lineage_enabled_run_matches_golden_fig11():
    """Stronger than probes-off bit-identity: the probes only *read* the
    sim clock, so even a fully-instrumented run must reproduce the pinned
    golden trajectory exactly (``to_json`` excludes ``extra``)."""
    result = run_workload(RunSpec("kvaccel", "A", 1, rollback="disabled"),
                          mini_profile(256), lineage=True)
    produced = json.loads(json.dumps(result.to_json()))
    golden = json.loads(GOLDEN.read_text())
    assert set(produced) == set(golden)
    for field in golden:
        assert produced[field] == golden[field], (
            f"lineage probes altered the trajectory in field {field!r}")
