"""The crash-point sweep: ISSUE 1's acceptance criteria.

* the sweep over the harness workload reaches >= 30 distinct injection
  sites and the acked-write-durability / no-phantom-write invariants hold
  at every one;
* a deliberately broken recovery (skipping the Dev-LSM drain, or skipping
  the Dev-LSM reset) is caught by the same invariants.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import fault_seed  # noqa: E402

from repro.faults import (  # noqa: E402
    KvaccelFaultHarness,
    broken_recovery_skip_drain,
    broken_recovery_skip_reset,
    sweep_crash_points,
)
from repro.faults.__main__ import main as faults_main  # noqa: E402


def test_sweep_covers_sites_and_invariants_hold_everywhere():
    harness = KvaccelFaultHarness(seed=fault_seed())
    report = sweep_crash_points(harness)
    assert report.sites_traced >= 30, report.summary_lines()
    assert len(report.crashed) >= 30
    assert report.failed == [], "\n".join(
        r.describe() for r in report.failed)
    # Spot-check the layers are all represented in the sweep.
    sites = {r.site for r in report.reports}
    for prefix in ("nand.", "pcie.", "fs.", "wal.", "db.", "ctl.", "kv.",
                   "devlsm.", "rollback."):
        assert any(s.startswith(prefix) for s in sites), prefix


def test_sweep_budget_bounds_runs_and_reports_skips():
    harness = KvaccelFaultHarness(seed=fault_seed())
    report = sweep_crash_points(harness, budget=5)
    assert report.crash_runs == 5
    assert report.skipped_for_budget == report.sites_traced - 5
    assert report.failed == []


def test_trace_is_deterministic_for_a_seed():
    h = KvaccelFaultHarness(seed=fault_seed())
    t1 = h.trace()
    t2 = h.trace()
    assert [(x.site, x.occurrence, x.time) for x in t1] == \
           [(x.site, x.occurrence, x.time) for x in t2]


def test_broken_recovery_skipping_devlsm_drain_is_caught():
    """Recovery that resets the Dev-LSM without merging loses every acked
    redirected write still parked there — the oracle must flag it."""
    harness = KvaccelFaultHarness(seed=fault_seed(),
                                  recovery=broken_recovery_skip_drain)
    report = harness.crash_at("kv.put_batch.complete", occurrence=10)
    assert report.crashed
    assert any(v.kind == "durability" for v in report.violations), \
        report.describe()


def test_broken_recovery_skipping_devlsm_reset_is_caught():
    """Recovery that merges but forgets the reset leaves the two LSMs'
    metadata in disagreement — also flagged."""
    harness = KvaccelFaultHarness(seed=fault_seed(),
                                  recovery=broken_recovery_skip_reset)
    report = harness.crash_at("kv.put_batch.complete", occurrence=10)
    assert report.crashed
    assert any(v.kind == "metadata-disagreement"
               for v in report.violations), report.describe()


def test_correct_recovery_at_same_crash_point_passes():
    harness = KvaccelFaultHarness(seed=fault_seed())
    report = harness.crash_at("kv.put_batch.complete", occurrence=10)
    assert report.crashed
    assert report.ok, report.describe()
    assert report.recovery is not None
    assert report.recovery.entries > 0


def test_cli_sweep_with_budget_and_summary(tmp_path, capsys):
    summary = tmp_path / "sweep.md"
    rc = faults_main(["--faults-budget", "4", "--summary", str(summary)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "crash-point sweep" in out
    text = summary.read_text()
    assert "Crash-point sweep" in text
    assert "| site |" in text


def test_cli_list_sites(capsys):
    rc = faults_main(["--list-sites"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "distinct sites" in out
    assert "wal.append" in out
