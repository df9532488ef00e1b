"""Serial vs ``--jobs N`` identity for the cell fan-out.

Each experiment cell is a self-contained simulation (own Environment, own
seed), so running cells on worker processes must produce results identical
to a serial run: same keys in the same spec order, same metrics, same
series, same kernel-event count — only the host wall-clock keys in
``extra`` and the live objects stripped at the process boundary may differ.
"""

import dataclasses
from pathlib import Path

from repro.bench import RunSpec, mini_profile
from repro.bench.experiments.common import run_cells, splice_path
from repro.bench.runner import LIVE_EXTRA_KEYS, WALL_EXTRA_KEYS, RunOptions

SPECS = [
    RunSpec("rocksdb", "A", 1, slowdown=False, label="serial-vs-jobs/rocksdb"),
    RunSpec("kvaccel", "A", 1, rollback="disabled",
            label="serial-vs-jobs/kvaccel"),
]


def _tiny_profile(duration: float = 0.6):
    # Small enough that the pair of runs stays in test-suite budget.
    return dataclasses.replace(mini_profile(256), duration=duration)


def _comparable(result) -> dict:
    doc = result.to_json()
    doc["events_processed"] = result.extra["events_processed"]
    doc["extra_keys"] = sorted(
        k for k in result.extra
        if k not in WALL_EXTRA_KEYS and k not in LIVE_EXTRA_KEYS
        and k != "trace_path")
    return doc


def test_jobs2_results_identical_to_serial():
    profile = _tiny_profile()
    serial = run_cells(SPECS, profile, RunOptions(jobs=1))
    fanned = run_cells(SPECS, profile, RunOptions(jobs=2))
    assert list(serial) == list(fanned) == [s.display for s in SPECS]
    for label in serial:
        assert _comparable(serial[label]) == _comparable(fanned[label]), label


def test_jobs2_cluster_cells_with_telemetry_cross_the_process_boundary():
    """Regression: a multi-shard cluster cell with telemetry on carries a
    HealthMonitor with the per-shard rules in ``extra``; it holds
    generators, so a worker that did not strip it died pickling its result
    (``python -m repro.bench cluster --jobs 2``)."""
    specs = [RunSpec("cluster", "A", 1, shards=2, seed=seed,
                     label=f"serial-vs-jobs/cluster2-seed{seed}")
             for seed in (1, 2)]
    profile = _tiny_profile(duration=0.3)
    serial = run_cells(specs, profile, RunOptions(jobs=1, telemetry=True))
    fanned = run_cells(specs, profile, RunOptions(jobs=2, telemetry=True))
    assert list(serial) == list(fanned) == [s.display for s in specs]
    for label in serial:
        rules = serial[label].extra["health_monitor"].rules
        assert "stall_storm.shard1" in [r.name for r in rules]
        assert serial[label].telemetry is not None
        assert _comparable(serial[label]) == _comparable(fanned[label]), label


def test_workers_strip_live_objects():
    fanned = run_cells(SPECS, _tiny_profile(), RunOptions(jobs=2))
    for result in fanned.values():
        for key in LIVE_EXTRA_KEYS:
            assert key not in result.extra
        # ...but keep the event count and the wall-clock instrumentation.
        for key in ("events_processed",) + WALL_EXTRA_KEYS:
            assert key in result.extra


def test_jobs_cap_and_single_cell_stay_serial():
    # One cell with jobs=4 takes the serial path (nothing to fan out);
    # live objects are absent only because telemetry/trace are off.
    profile = _tiny_profile()
    out = run_cells([SPECS[0]], profile, RunOptions(jobs=4))
    assert list(out) == [SPECS[0].display]
    assert out[SPECS[0].display].write_ops > 0


def test_jobs2_writes_the_serial_trace_and_journal_files(tmp_path):
    """Each cell's trace and journal are written by the process that ran
    it, under its spec-order name: a fan-out writes the serial run's files
    byte for byte."""
    profile = _tiny_profile(duration=0.3)
    written = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        results = run_cells(SPECS, profile, RunOptions(
            jobs=jobs, trace_path=str(out / "t.json"),
            journal_path=str(out / "j.jsonl.gz")))
        written[jobs] = {
            Path(r.extra[key]).name: Path(r.extra[key]).read_bytes()
            for r in results.values() for key in ("trace_path",
                                                  "journal_path")}
    assert sorted(written[1]) == [
        "j.01.serial-vs-jobs_rocksdb.jsonl.gz",
        "j.02.serial-vs-jobs_kvaccel.jsonl.gz",
        "t.01.serial-vs-jobs_rocksdb.json",
        "t.02.serial-vs-jobs_kvaccel.json"]
    assert written[1] == written[2]


def test_cell_trace_path_is_per_cell_and_filesystem_safe():
    # Per-cell names (index, label) as run_cells splices them ...
    assert splice_path("out/trace.json", ".json", "03", "fig11/kvaccel") \
        == "out/trace.03.fig11_kvaccel.json"
    assert splice_path("trace", ".json", "01", "x") == "trace.01.x.json"
    assert splice_path("t.json", ".json", "01", "cell one!") \
        == "t.01.cell_one_.json"
    assert splice_path("j.jsonl.gz", ".jsonl.gz", "01", "KVAccel(1)") \
        == "j.01.KVAccel_1_.jsonl.gz"
    assert splice_path("j.jsonl", ".jsonl.gz", "02", "a.b") \
        == "j.02.a_b.jsonl"
    assert splice_path("j", ".jsonl.gz", "01", "x") == "j.01.x.jsonl.gz"
    # ... per-experiment bases as `python -m repro.bench all` splices them,
    # then the cell on top: the names stay distinct per experiment.
    assert splice_path("out/t.json", ".json", "fig04") == "out/t.fig04.json"
    assert splice_path("t", ".json", "fig04") == "t.fig04.json"
    assert splice_path("j", ".jsonl.gz", "fig04") == "j.fig04.jsonl.gz"
    assert splice_path(splice_path("j", ".jsonl.gz", "fig04"), ".jsonl.gz",
                       "01", "x") == "j.fig04.01.x.jsonl.gz"
