"""Failover — acked-write-loss oracle sweep over primary crash points.

Robustness battery for the replica-group layer (``repro.cluster.replica``):
every shard a primary + backup, a scripted client workload, and a
shard-scoped CRASH armed at the Nth hit of a real fault site on the
target shard's write path.  The failure detector notices the dead
primary, promotes the backup after catch-up, and the scenario verifies
every *acknowledged* write through the facade.

The sweep runs **both** replication modes (``replay`` WAL streaming and
``index-ship`` bulk installs) across a range of crash points, plus one
live-resharding composition (router seed bump mid-run while a primary
dies).  Shape checks:

* zero acked writes lost or stale at *every* crash point, both modes —
  the issue's acceptance criterion;
* every crashed run performed a real promotion (the oracle is not
  passing vacuously);
* crash-free negative control: no failover fires when nothing dies;
* the failover + reshard composition moves keys and still loses nothing.
"""

from __future__ import annotations

import json

from ...cluster import (
    INDEX_SHIP,
    REPLAY,
    failover_sweep,
    run_failover_scenario,
)
from ...faults import fault_seed
from ..report import fmt, shape_check, table
from .common import resolve_profile


def _row(r) -> list:
    return [
        r.mode,
        f"{r.kill_site}#{r.kill_occurrence}" if r.kill_site else "scripted",
        "ok" if r.ok else "FAIL",
        r.acked,
        len(r.lost),
        len(r.stale),
        r.failovers,
        fmt(r.failover_duration * 1e3, 2),
        r.catchup_records,
        r.moved_keys if r.rebalanced else "-",
    ]


def run(profile=None, quick: bool = False, options=None,
        out=None) -> dict:  # options unused: single-env scenarios
    profile = resolve_profile(profile, quick)
    occurrences = range(1, 5) if quick else range(1, 9)
    ops = 40 if quick else 80
    seed = fault_seed()

    reports = []
    for mode in (REPLAY, INDEX_SHIP):
        reports += failover_sweep(mode, occurrences=occurrences,
                                  seed=seed, ops=ops)
    # Composition: primary dies while a live reshard migrates keys.
    for mode in (REPLAY, INDEX_SHIP):
        reports.append(run_failover_scenario(
            mode, ops=ops, kill_occurrence=3,
            reshard_at_op=ops // 4, seed=seed))
    # Negative control: crash-free run must not promote.
    control = run_failover_scenario(REPLAY, ops=ops, kill_site=None,
                                    seed=seed)
    reports.append(control)

    check = shape_check("Failover: zero acked-write loss across crash sweep")
    crashed = [r for r in reports if r.crashed]
    check.expect(
        "zero lost/stale acked writes at every crash point, both modes",
        all(not r.lost and not r.stale and r.error is None
            for r in reports),
        "; ".join(r.describe() for r in reports if not r.ok) or "all clean")
    check.expect(
        f"every crashed run promoted a backup ({len(crashed)} crashes)",
        len(crashed) >= 2 * len(occurrences)
        and all(r.failovers >= 1 for r in crashed),
        f"failovers {[r.failovers for r in crashed]}")
    resharded = [r for r in reports if r.rebalanced]
    check.expect(
        "failover + live reshard composes (keys moved, nothing lost)",
        all(r.ok and r.moved_keys > 0 for r in resharded),
        f"moved {[r.moved_keys for r in resharded]}")
    check.expect(
        "negative control: no failover without a crash",
        control.ok and not control.crashed and control.failovers == 0,
        control.describe())

    print(table(
        ["mode", "kill", "status", "acked", "lost", "stale",
         "failovers", "promo (ms)", "catchup", "moved"],
        [_row(r) for r in reports],
        title=f"Failover — crash-point sweep (seed={seed:#x})"))
    print(check.render())

    doc = {
        "experiment": "failover",
        "profile": profile.name,
        "seed": seed,
        "runs": [
            {"mode": r.mode, "kill_site": r.kill_site,
             "kill_occurrence": r.kill_occurrence,
             "killed_shard": r.killed_shard, "crashed": r.crashed,
             "acked": r.acked, "aborted": r.aborted,
             "lost": len(r.lost), "stale": len(r.stale),
             "failovers": r.failovers,
             "failover_duration": r.failover_duration,
             "catchup_records": r.catchup_records,
             "rebalanced": r.rebalanced, "moved_keys": r.moved_keys,
             "sim_time": r.sim_time, "ok": r.ok, "error": r.error}
            for r in reports
        ],
        "checks_passed": check.passed,
    }
    if out:
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"failover report written to {out}")

    return {"reports": reports, "report": doc, "check": check}


if __name__ == "__main__":
    run()["check"].assert_all()
