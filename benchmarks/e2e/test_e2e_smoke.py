"""Smoke test of the benchmark itself (about two minutes; not in tier 1):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs all six cells twice untraced, three of them traced, and checks the
output against what BENCHMARK.json declares.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cells import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TRACED = ("fill_kvaccel", "fill_rocksdb", "scan_kvaccel")


@pytest.fixture(scope="module")
def decl():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_report(tmp, name, *flags):
    out = tmp / f"{name}.json"
    proc = subprocess.run([*RUN, *flags, "--json", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text()), proc.stdout


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("e2e")


@pytest.fixture(scope="module")
def untraced(tmp):
    return run_report(tmp, "untraced", "--repeats", "2")[0]


@pytest.fixture(scope="module")
def seed2(tmp):
    return run_report(tmp, "seed2", "--repeats", "2", "--seed", "2",
                      "--workload", "fill_rocksdb")[0]


@pytest.fixture(scope="module")
def traced(tmp):
    flags = [f for w in TRACED for f in ("--workload", w)]
    return run_report(tmp, "traced", "--trace", "1", *flags)[0]


def test_declaration_is_well_formed(decl):
    assert set(decl) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert decl["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(decl["workloads"]) <= 8
    assert 1 <= len(decl["end_to_end"]) <= 16
    assert 1 <= len(decl["per_layer"]) <= 128
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in decl[k]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in decl["end_to_end"])
    setup = [m for m in decl["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_every_workload_reports_every_e2e_metric(decl, untraced):
    assert list(untraced["workloads"]) == [w["name"]
                                           for w in decl["workloads"]]
    for name, doc in untraced["workloads"].items():
        res = doc["result"]
        assert res["correct"] and res["failed"] == 0, name
        assert res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in decl["end_to_end"]}, name
        assert all(v["value"] > 0 for v in res["metrics"].values()), name
        assert doc["verify"]["mechanism_seen"], name


def test_overlap_cell_runs_the_workloads_own_rollback_scheme(untraced):
    for name, doc in untraced["workloads"].items():
        overlap = doc["verify"]["overlap"]
        spec = WORKLOADS[name]["spec"]
        if spec["system"] == "rocksdb":
            assert overlap is None
            continue
        assert overlap["rollback"] == spec["rollback"], name
        assert overlap["mechanism_seen"] and overlap["attempted"] > 0, name
        assert overlap["failed"] < overlap["attempted"], name


def test_repeats_are_bit_identical(untraced):
    for name, doc in untraced["workloads"].items():
        assert len(doc["runs"]) == 2, name
        assert doc["summary"]["deterministic"], name
        assert len({r["sim_digest"] for r in doc["runs"]}) == 1, name
        assert not any(r["broken_identities"] for r in doc["runs"]), name


def test_another_seed_is_another_model_run(seed2, untraced):
    assert (seed2["workloads"]["fill_rocksdb"]["summary"]["sim_digest"]
            != untraced["workloads"]["fill_rocksdb"]["summary"]["sim_digest"])


def compare(*argv):
    proc = subprocess.run([*RUN, "compare", *map(str, argv)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


def test_compare_of_a_report_with_itself_is_all_same(tmp, untraced):
    path = tmp / "untraced.json"
    status, out = compare(path, path)
    assert status == 0, out
    for word in ("worse", "DIFFERENT", "model-changed", "MORE-FAILED"):
        assert word not in out
    # Every simulated output is shown, not only the gated one.
    assert "sim_link_amp" in out and "sim_stall_s" in out


def test_compare_fails_on_a_model_change_inside_the_bound(tmp, untraced):
    changed = json.loads(json.dumps(untraced))
    summary = changed["workloads"]["fill_kvaccel"]["summary"]
    summary["sim"]["sim_link_amp"] *= 1.02
    summary["sim_digest"] = "0" * 64
    path = tmp / "model_changed.json"
    path.write_text(json.dumps(changed))
    status, out = compare(tmp / "untraced.json", path)
    assert status == 1 and "model-changed" in out and "DIFFERENT" in out
    status, out = compare(tmp / "untraced.json", path,
                          "--allow-model-change")
    assert status == 0 and "model-changed (allowed)" in out


def test_compare_fails_when_more_overlap_reads_fail(tmp, untraced):
    changed = json.loads(json.dumps(untraced))
    changed["workloads"]["cluster4_fill"]["verify"]["overlap"]["failed"] += 1
    path = tmp / "more_failed.json"
    path.write_text(json.dumps(changed))
    status, out = compare(tmp / "untraced.json", path)
    assert status == 1 and "MORE-FAILED" in out
    assert compare(path, tmp / "untraced.json")[0] == 0


def test_compare_refuses_reports_of_different_seeds(tmp, untraced, seed2):
    assert compare(tmp / "untraced.json", tmp / "seed2.json")[0] == 2


def test_traced_reports_every_layer_metric(decl, traced):
    for name, doc in traced["workloads"].items():
        res = doc["result"]
        assert res["correct"] and doc["passive"], name
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in decl["per_layer"]}, name
        layers = doc["layers"]
        shares = [v for k, v in layers.items() if k.endswith(".wall_share")]
        assert len(shares) == 10
        assert abs(sum(shares) - 1.0) < 1e-6, name
        assert all(isinstance(v, int) for k, v in layers.items()
                   if k.endswith(".calls"))
        # The observability planes are off in these cells.
        assert layers["obs.wall_share"] < 1e-3, name
        assert layers["obs.trace_spans"] == 0, name
        assert layers["obs.overhead_ratio"] == 1.0, name
        overlap = doc["verify"]["overlap"] or {"attempted": 0, "failed": 0}
        assert layers["core.verify_overlap_reads"] == overlap["attempted"]
        assert (layers["core.verify_overlap_failed_reads"]
                == overlap["failed"])


def test_workloads_separate_the_layers(traced):
    fill, rocks, scan = (traced["workloads"][w]["layers"] for w in TRACED)
    shares = {k: v for k, v in fill.items() if k.endswith(".wall_share")}
    assert max(shares, key=shares.get) == "lsm.wall_share"
    assert fill["sim.wall_share"] < 0.15
    assert scan["sim.wall_share"] >= 2 * fill["sim.wall_share"]
    assert rocks["core.wall_share"] == 0 and rocks["core.calls"] == 0
    assert fill["core.redirected_writes"] > 0 and fill["core.rollbacks"] > 0
    assert rocks["core.redirected_writes"] == 0


def test_without_the_program_there_is_no_result(tmp):
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "fill_kvaccel", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
