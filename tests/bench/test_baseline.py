"""Bench pin store + exact compare: document shape, write/load round
trip, the header check on load, and the zero-tolerance comparator."""

import copy
import json

import pytest

from repro.bench.baseline import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    build_baseline,
    default_baseline_path,
    write_baseline,
)
from repro.bench.profiles import mini_profile
from repro.bench.runner import WALL_EXTRA_KEYS, RunSpec, run_workload
from repro.obs.compare import (
    compare_baselines,
    format_comparison,
    load_baseline,
)

PROFILE = mini_profile(256)


@pytest.fixture(scope="module")
def baseline_doc():
    """A real two-cell pin document (the fig12-style flow, one workload)."""
    results = {}
    for spec in [RunSpec("rocksdb", "A", 1, slowdown=False),
                 RunSpec("kvaccel", "A", 1, rollback="disabled")]:
        results[spec.display] = run_workload(spec, PROFILE, telemetry=True)
    return build_baseline("figtest", PROFILE.name, results,
                          checks_passed=True, quick=True)


def _load(doc, path) -> dict:
    path.write_text(json.dumps(doc))
    return load_baseline(str(path))


def test_baseline_validates_against_schema(baseline_doc, tmp_path):
    assert baseline_doc["schema"] == SCHEMA_NAME
    assert baseline_doc["version"] == SCHEMA_VERSION
    assert len(baseline_doc["cells"]) == 2
    assert _load(baseline_doc, tmp_path / "ok.json") == baseline_doc


def test_cell_metrics_shape(baseline_doc):
    for cell in baseline_doc["cells"].values():
        assert cell["duration"] > 0
        assert cell["write_throughput_ops"] > 0
        assert cell["events_processed"] > 0
        assert isinstance(cell["health"], dict)
        # Host wall-clock stays in RunResult.extra, never in the pin.
        assert not set(WALL_EXTRA_KEYS) & set(cell)
    stall_cell = baseline_doc["cells"]["RocksDB(1) w/o slowdown"]
    clean_cell = baseline_doc["cells"]["KVAccel(1)"]
    assert stall_cell["health"].get("stall_storm", 0) >= 1
    assert clean_cell["health"].get("stall_storm", 0) == 0


def test_schema_rejects_malformed(baseline_doc):
    # What the JSON Schema used to reject, the exact compare against a
    # pin rejects: a missing, an extra and a mistyped field are each a row.
    bad = copy.deepcopy(baseline_doc)
    cell = bad["cells"]["KVAccel(1)"]
    del cell["write_throughput_ops"]
    cell["bogus_metric"] = 1.0
    cell["write_ops"] = "many"
    assert [d[:2] for d in compare_baselines(baseline_doc, bad)] == [
        ("KVAccel(1)", "bogus_metric"), ("KVAccel(1)", "write_ops"),
        ("KVAccel(1)", "write_throughput_ops")]


def test_compare_rejects_non_baseline(baseline_doc, tmp_path):
    # The header check stays on load: the file is input from outside.
    for mutate in (lambda d: d.update(schema="something-else"),
                   lambda d: d.update(version=SCHEMA_VERSION - 1),
                   lambda d: d.pop("version"),
                   lambda d: d.update(cells=[]),
                   lambda d: d["cells"].update(x="not a cell record")):
        bad = copy.deepcopy(baseline_doc)
        mutate(bad)
        with pytest.raises(ValueError, match="not a repro-bench-baseline v3"):
            _load(bad, tmp_path / "bad.json")
    with pytest.raises(ValueError):
        _load([1, 2], tmp_path / "bad.json")


def test_write_and_load_round_trip(baseline_doc, tmp_path):
    path = write_baseline(baseline_doc, tmp_path / "BENCH_figtest.json")
    assert load_baseline(str(path)) == baseline_doc


def test_default_baseline_path(tmp_path):
    assert default_baseline_path("fig12").name == "BENCH_fig12.json"
    assert default_baseline_path("fig12", tmp_path).parent == tmp_path


def test_self_compare_is_zero_diff(baseline_doc):
    assert compare_baselines(baseline_doc, baseline_doc) == []
    assert "equal" in format_comparison([])


def test_compare_flags_regression(baseline_doc):
    # No band and no better/worse: a halved throughput, its reverse, and
    # a single extra op are all the same verdict — the model changed.
    old = baseline_doc["cells"]["KVAccel(1)"]["write_throughput_ops"]
    worse = copy.deepcopy(baseline_doc)
    worse["cells"]["KVAccel(1)"]["write_throughput_ops"] = old * 0.5
    assert compare_baselines(baseline_doc, worse) == \
        [("KVAccel(1)", "write_throughput_ops", old, old * 0.5)]
    assert compare_baselines(worse, baseline_doc) == \
        [("KVAccel(1)", "write_throughput_ops", old * 0.5, old)]
    moved = copy.deepcopy(baseline_doc)
    moved["cells"]["KVAccel(1)"]["write_ops"] += 1
    diffs = compare_baselines(baseline_doc, moved)
    assert [d[:2] for d in diffs] == [("KVAccel(1)", "write_ops")]
    text = format_comparison(diffs, "a.json", "b.json")
    ops = baseline_doc["cells"]["KVAccel(1)"]["write_ops"]
    assert "a.json -> b.json" in text
    assert f"(KVAccel(1), write_ops): {ops} -> {ops + 1}" in text
    assert "1 difference(s)" in text


def test_compare_structural_findings(baseline_doc):
    # A cell on one side only is one row, in either direction.
    missing = copy.deepcopy(baseline_doc)
    del missing["cells"]["KVAccel(1)"]
    assert compare_baselines(baseline_doc, missing) == \
        [("KVAccel(1)", "<cell>", "present", "<missing>")]
    assert compare_baselines(missing, baseline_doc) == \
        [("KVAccel(1)", "<cell>", "<missing>", "present")]
    # A health rule's firing count is compared like any other value.
    sick = copy.deepcopy(baseline_doc)
    sick["cells"]["KVAccel(1)"]["health"]["stall_storm"] = 3
    assert [d[:2] for d in compare_baselines(baseline_doc, sick)] == \
        [("KVAccel(1)", "health")]
    # Header fields are part of the pin.
    failed = copy.deepcopy(baseline_doc)
    failed["checks_passed"] = False
    assert compare_baselines(baseline_doc, failed) == \
        [("<document>", "checks_passed", True, False)]
