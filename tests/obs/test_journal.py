"""Flight recorder + first-divergence bisector (repro.obs.journal).

Four layers:

* unit — window filtering, record and histogram views on a synthetic
  journal (no simulation);
* determinism — the same profile + seed recorded twice produces
  *byte*-identical journal files, and a single injected DELAY fault is
  pinpointed by the bisector down to the armed site;
* no-op matrix — all four observability planes (trace + telemetry +
  lineage + journal) enabled simultaneously still reproduce the pinned
  golden fig11 trajectory bit-identically;
* plumbing — CLI exit codes, cluster per-shard digest scopes and windowed
  replay recordings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import fault_seed, make_cluster_system  # noqa: E402

from repro.bench import RunSpec, mini_profile, run_workload  # noqa: E402
from repro.bench.runner import build_system  # noqa: E402
from repro.faults import (  # noqa: E402
    DELAY,
    FaultAction,
    FaultRegistry,
    NthOccurrencePlan,
)
from repro.obs import (  # noqa: E402
    Journal,
    Tracer,
    first_divergence,
    format_divergence,
    load_journal,
    register_digest_sources,
    write_divergence_artifact,
    write_journal,
)
from repro.obs.__main__ import main as obs_main  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.workload import DriverConfig, FillRandomDriver  # noqa: E402

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden_fig11_cell.json"
SRC = Path(__file__).resolve().parents[2] / "src"

PERTURB_SITE = "wal.flush.start"


# -- unit: record bookkeeping -------------------------------------------------

def _dicts(journal: Journal) -> list:
    return [Journal.record_dict(r) for r in journal.records]


def test_window_skips_outside_but_keeps_absolute_indices():
    j = Journal(window=(1.0, 2.0))
    j.record_event(0.5, "p", "Timeout")       # before the window
    j.site(1.5, "p", "wal.append")            # inside
    j.record_event(2.5, "p", "Process")       # after
    assert len(j) == 1
    rec = _dicts(j)[0]
    assert rec["kind"] == "site" and rec["site"] == "wal.append"
    assert rec["idx"] == 1                    # position in the full stream
    assert j.event_count == 2 and j.site_count == 1


def test_histogram_and_checkpoint_records():
    j = Journal(period=1.0)
    j.add_digest_source("toy", lambda: {"n": 1})
    j.record_event(0.1, "p", "Timeout")
    j.record_event(0.2, "p", "Timeout")
    j.record_event(0.3, "p", "Process")
    j.checkpoint_now(0.5)
    assert j.event_class_histogram() == {"Timeout": 2, "Process": 1}
    digests = [r for r in _dicts(j) if r["kind"] == "digest"]
    assert len(digests) == 1
    assert digests[0]["layer"] == "toy"
    assert len(digests[0]["digest"]) == 16


def test_a_detached_journal_keeps_its_records_and_refuses_checkpoints():
    j = Journal(period=1.0)
    j.add_digest_source("toy", lambda: {"n": 1})
    j.checkpoint_now(0.5)
    j.detach()
    assert j.layer_names == ["toy"]
    assert [r["layer"] for r in _dicts(j)] == ["toy"]
    with pytest.raises(RuntimeError, match="detached"):
        j.checkpoint_now(1.5)


# -- recording a real cell ----------------------------------------------------

def _record(path: str, profile, perturb: bool = False) -> Journal:
    """One fig11-style cell with the flight recorder on; ``perturb``
    arms a single DELAY at PERTURB_SITE (the bisector's needle)."""
    env = Environment()
    journal = Journal(period=profile.sample_period).install(env)
    if perturb:
        reg = FaultRegistry(fault_seed()).install(env)
        reg.arm(PERTURB_SITE, NthOccurrencePlan(5),
                FaultAction(DELAY, delay=0.001))
    spec = RunSpec("kvaccel", "A", 1, rollback="disabled")
    db, ssd, cpu = build_system(env, profile, spec)
    register_digest_sources(journal, db, ssd)
    cfg = DriverConfig(duration=profile.duration,
                       key_space=profile.key_space)
    driver = FillRandomDriver(env, db, cfg)
    env.run(until=driver.start())
    db.close()
    journal.checkpoint_now(env.now)
    write_journal(journal, path)
    return journal


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Three recordings of a small cell: twice clean, once perturbed."""
    d = tmp_path_factory.mktemp("journals")
    profile = mini_profile(128)
    paths = {"a": str(d / "a.jsonl.gz"), "b": str(d / "b.jsonl.gz"),
             "perturbed": str(d / "perturbed.jsonl.gz")}
    _record(paths["a"], profile)
    _record(paths["b"], profile)
    _record(paths["perturbed"], profile, perturb=True)
    return paths


def test_same_seed_journals_byte_identical(recorded):
    ba = Path(recorded["a"]).read_bytes()
    bb = Path(recorded["b"]).read_bytes()
    assert ba == bb, "same profile+seed must produce byte-identical journals"
    # and they are real recordings, not trivially empty
    loaded = load_journal(recorded["a"])
    kinds = {r[0] for r in loaded["records"]}
    assert kinds == {"event", "site", "digest"}
    assert loaded["meta"]["events"] > 1000


def test_bisector_reports_identical_runs_as_clean(recorded):
    report = first_divergence(load_journal(recorded["a"]),
                              load_journal(recorded["b"]))
    assert report["divergent"] is False
    assert report["first_divergence"] is None
    assert "identical" in format_divergence(report)


def test_bisector_pinpoints_injected_fault_site(recorded):
    report = first_divergence(load_journal(recorded["a"]),
                              load_journal(recorded["perturbed"]))
    assert report["divergent"] is True
    fd = report["first_divergence"]
    assert fd is not None and fd["t"] > 0.0
    # the nearest preceding site record names the injection point
    assert report["suspect_site"] is not None
    assert report["suspect_site"]["site"] == PERTURB_SITE
    # the digest pass bracketed the divergence too
    assert report["checkpoint"] is not None
    # context frames surround the divergent record in both streams
    assert report["context_a"] and report["context_b"]
    rendered = format_divergence(report, "clean", "perturbed")
    assert PERTURB_SITE in rendered
    assert "first divergent record" in rendered


def test_cli_diff_exit_codes(recorded, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def diff(*argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.obs", "diff", *argv],
            env=env, capture_output=True, text=True)

    same = diff(recorded["a"], recorded["b"])
    assert same.returncode == 0, same.stderr
    assert "identical" in same.stdout

    diverged = diff(recorded["a"], recorded["perturbed"], "--json")
    assert diverged.returncode == 1, diverged.stderr
    report = json.loads(diverged.stdout)
    assert report["suspect_site"]["site"] == PERTURB_SITE

    missing = diff(recorded["a"], str(tmp_path / "nope.jsonl.gz"))
    assert missing.returncode == 2


def test_divergence_artifact_written_when_dir_set(recorded, tmp_path,
                                                  monkeypatch):
    monkeypatch.setenv("REPRO_DIVERGENCE_DIR", str(tmp_path / "artifacts"))
    report = first_divergence(load_journal(recorded["a"]),
                              load_journal(recorded["perturbed"]))
    path = write_divergence_artifact("unit_test", report,
                                     meta={"origin": "test"})
    assert path is not None
    doc = json.loads(Path(path).read_text())
    assert doc["schema"] == "repro-divergence"
    assert doc["report"]["suspect_site"]["site"] == PERTURB_SITE
    # and without the env var the writer is a no-op
    monkeypatch.delenv("REPRO_DIVERGENCE_DIR")
    assert write_divergence_artifact("unit_test_2", report) is None


def test_replay_window_records_only_the_suspect_span(tmp_path, capsys):
    # Reference run through the same harness replay-to uses (the bench
    # runner), so the replayed trajectory is the identical one.
    profile = mini_profile(128)
    full = run_workload(RunSpec("kvaccel", "A", 1, rollback="disabled"),
                        profile,
                        journal=Journal(period=profile.sample_period))
    jr = full.extra["journal"]
    events = [r for r in jr.records if r[0] == "event"]
    t0, t1 = events[len(events) // 2][2], events[-1][2]
    out = str(tmp_path / "window.jsonl.gz")
    assert obs_main(["replay-to", repr(t0), repr(t1), out,
                     "--profile", "mini128"]) == 0
    # the recording lands where it was asked to
    assert capsys.readouterr().out.startswith(f"wrote {out}: ")
    windowed = load_journal(out)
    body = [r for r in windowed["records"] if r[0] in ("event", "site")]
    assert body, "window covers live sim time, must have records"
    assert all(t0 <= r[2] <= t1 for r in body)
    # absolute event positions are preserved: the same trajectory re-ran
    assert windowed["meta"]["events"] == jr.event_count
    assert len(body) < len(jr.records)


# -- the all-planes no-op matrix ---------------------------------------------

def test_all_planes_enabled_run_matches_golden_fig11():
    """Trace + telemetry + lineage + journal simultaneously: every plane
    only *reads* the sim clock, so even the fully instrumented run must
    reproduce the pinned golden fig11 trajectory bit-identically.
    ``telemetry``/``health_events`` are the two result fields the
    telemetry plane itself populates (null in the golden), so the
    comparison covers every other field exactly."""
    profile = mini_profile(256)
    result = run_workload(RunSpec("kvaccel", "A", 1, rollback="disabled"),
                          profile, tracer=Tracer(), telemetry=True,
                          lineage=True,
                          journal=Journal(period=profile.sample_period))
    produced = json.loads(json.dumps(result.to_json()))
    golden = json.loads(GOLDEN.read_text())
    assert set(produced) == set(golden)
    plane_owned = {"telemetry", "health_events"}
    for field in golden:
        if field in plane_owned:
            continue
        assert produced[field] == golden[field], (
            f"observability planes altered the trajectory in {field!r}")
    # the planes actually ran
    assert result.telemetry is not None
    assert result.extra["journal"].event_count > 0
    assert len(result.extra["lineage"]["ops"]) > 0


# -- plumbing: cluster scopes ------------------------------------------------

def test_cluster_digest_sources_scoped_per_shard():
    env = Environment()
    journal = Journal().install(env)
    cluster, _ = make_cluster_system(env, shards=2)
    register_digest_sources(journal, cluster)
    journal.checkpoint_now(0.0)
    layers = {r["layer"] for r in _dicts(journal) if r["kind"] == "digest"}
    for sid in range(2):
        for name in ("lsm", "controller", "detector", "devlsm", "ftl"):
            assert f"cluster.shard{sid}.{name}" in layers
    cluster.close()
