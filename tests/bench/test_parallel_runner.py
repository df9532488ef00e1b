"""Serial vs ``--jobs N`` identity for the cell fan-out.

Each experiment cell is a self-contained simulation (own Environment, own
seed), so running cells on worker processes must produce results identical
to a serial run: same keys in the same spec order, same metrics, same
series, same kernel-event count — only the host wall-clock keys in
``extra`` and the live objects stripped at the process boundary may differ.
"""

import dataclasses

from repro.bench import RunSpec, mini_profile
from repro.bench.experiments.common import run_cells
from repro.bench.runner import (LIVE_EXTRA_KEYS, WALL_EXTRA_KEYS, RunOptions,
                                cell_trace_path)

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
    """Regression: a multi-shard cluster cell with telemetry on carries the
    facade's per-shard HealthMonitor in ``extra``; it holds generators, so
    a worker that did not strip it died pickling its result
    (``python -m repro.bench cluster --jobs 2``)."""
    specs = [RunSpec("cluster", "A", 1, shards=2, seed=seed,
                     label=f"serial-vs-jobs/cluster2-seed{seed}")
             for seed in (1, 2)]
    profile = _tiny_profile(duration=0.3)
    serial = run_cells(specs, profile, RunOptions(jobs=1, telemetry=True))
    fanned = run_cells(specs, profile, RunOptions(jobs=2, telemetry=True))
    assert list(serial) == list(fanned) == [s.display for s in specs]
    for label in serial:
        assert "shard_health_monitor" in serial[label].extra
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


def test_cell_trace_path_is_per_cell_and_filesystem_safe():
    assert cell_trace_path("out/trace.json", "fig11/kvaccel", 3) \
        == "out/trace.03.fig11_kvaccel.json"
    assert cell_trace_path("trace", "x", 1) == "trace.01.x.json"
    assert cell_trace_path("t.json", "cell one!", 1) == "t.01.cell_one_.json"
