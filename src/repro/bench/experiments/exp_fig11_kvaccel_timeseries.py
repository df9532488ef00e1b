"""Figure 11 — per-second throughput: RocksDB(1), ADOC(1), KVACCEL(1).

Paper: in the windows where RocksDB and ADOC slow down to ~2 Kops/s to
dodge a stall, KVACCEL keeps writing at 30+ Kops/s by redirecting into the
Dev-LSM; KVACCEL uses no slowdown mechanism at all.
"""

from __future__ import annotations

import math

from ..report import series_sparkline, shape_check
from ..runner import RunSpec
from .common import resolve_profile, run_cells

PAPER = {
    "baseline_floor_kops": 2.0,
    "kvaccel_during_stall_kops": 30.0,
}


def _low_decile_kops(result) -> float:
    """Mean of the lowest 10% of per-bucket throughputs (the 'floor').

    The sum is exactly rounded (``math.fsum``), so the floor does not
    depend on the order of the additions or the Python version.
    """
    period = result.extra["sample_period"]
    vals = [v / period / 1000 for v in result.write_ops_series]
    vals = sorted(vals[len(vals) // 10:])      # past the warm-up tenth
    k = max(1, len(vals) // 10)
    return math.fsum(vals[:k]) / k


def run(profile=None, quick: bool = False,
        options=None) -> dict:
    profile = resolve_profile(profile, quick)
    specs = [
        RunSpec("rocksdb", "A", 1, slowdown=True),
        RunSpec("adoc", "A", 1, slowdown=True),
        RunSpec("kvaccel", "A", 1, rollback="disabled"),
    ]
    results = run_cells(specs, profile, options)

    floors = {label: _low_decile_kops(r) for label, r in results.items()}

    check = shape_check("Fig 11: KVACCEL writes through the stall windows")
    check.expect_order(
        "KVACCEL's worst periods far exceed RocksDB's slowdown floor",
        floors["KVAccel(1)"], floors["RocksDB(1)"], slack=1.5)
    check.expect_order(
        "KVACCEL's worst periods exceed ADOC's slowdown floor",
        floors["KVAccel(1)"], floors["ADOC(1)"], slack=1.2)
    check.expect(
        "KVACCEL employs no slowdown",
        results["KVAccel(1)"].slowdown_events == 0)
    check.expect(
        "baselines do slow down",
        results["RocksDB(1)"].slowdown_events > 0
        and results["ADOC(1)"].slowdown_events > 0)
    check.expect(
        "redirection actually happened",
        results["KVAccel(1)"].extra.get("redirected_writes", 0) > 0,
        str(results["KVAccel(1)"].extra.get("redirected_writes")))

    lines = ["Figure 11 — per-second write throughput (Kops/s)"]
    for label, r in results.items():
        period = r.extra["sample_period"]
        per_s = [v / period / 1000 for v in r.write_ops_series]
        lines.append(series_sparkline(per_s, label=f"  {label:12s} "))
        lines.append(f"    avg={r.write_throughput_ops/1000:.1f}K, "
                     f"low-decile={floors[label]:.1f}K, "
                     f"slowdowns={r.slowdown_events}")
    lines.append(
        f"paper: baselines dip to ~{PAPER['baseline_floor_kops']:.0f}K, "
        f"KVACCEL keeps ~{PAPER['kvaccel_during_stall_kops']:.0f}K+")
    lines.append(check.render())
    print("\n".join(lines))
    return {"results": results, "floors": floors, "paper": PAPER,
            "check": check}


if __name__ == "__main__":
    run()["check"].assert_all()
