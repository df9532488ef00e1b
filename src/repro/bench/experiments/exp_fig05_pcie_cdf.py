"""Figure 5 — CDF of PCIe bandwidth utilisation during write stalls.

Paper (600 s, RocksDB w/o slowdown):

* 1 compaction thread: 30 % of stall seconds at zero usage, 49 % above 90 %;
* 4 compaction threads: 21 % at zero, 55 % above 90 %.

The shape to hold: a bimodal CDF (mass at zero and near peak), with more
threads shifting mass from idle toward busy.
"""

from __future__ import annotations

from ...metrics import analyze_stall_pcie, utilization_cdf
from ..report import shape_check, table
from ..runner import RunSpec
from .common import resolve_profile, run_cells

PAPER = {
    "zero_fraction": {1: 0.30, 4: 0.21},
    "above_90_fraction": {1: 0.49, 4: 0.55},
}


def run(profile=None, quick: bool = False,
        options=None) -> dict:
    profile = resolve_profile(profile, quick)
    specs = [
        RunSpec("rocksdb", "A", 1, slowdown=False),
        RunSpec("rocksdb", "A", 4, slowdown=False),
    ]
    results = run_cells(specs, profile, options)

    stats = {}
    cdfs = {}
    rows = []
    for threads, label in [(1, "RocksDB(1) w/o slowdown"),
                           (4, "RocksDB(4) w/o slowdown")]:
        r = results[label]
        s = analyze_stall_pcie(
            r.pcie_times, r.pcie_series, r.stall_intervals,
            capacity=r.extra["device_peak_bw"] * r.extra["sample_period"],
            bucket=r.extra["sample_period"])
        stats[threads] = s
        cdfs[threads] = utilization_cdf(s.utilizations)
        rows.append([
            f"RocksDB({threads})",
            s.stall_buckets,
            f"{s.zero_fraction*100:.0f}% (paper {PAPER['zero_fraction'][threads]*100:.0f}%)",
            f"{s.above_90_fraction*100:.0f}% (paper {PAPER['above_90_fraction'][threads]*100:.0f}%)",
        ])

    check = shape_check("Fig 5: bimodal stall-period PCIe utilisation CDF")
    check.expect("1 thread: nonzero idle mass (paper 30%)",
                 stats[1].zero_fraction > 0.02,
                 f"{stats[1].zero_fraction:.2f}")
    for threads in (1, 4):
        check.expect(f"{threads} thread(s): large near-peak mass (paper "
                     f"{PAPER['above_90_fraction'][threads]*100:.0f}%)",
                     stats[threads].above_90_fraction > 0.05,
                     f"{stats[threads].above_90_fraction:.2f}")
    if stats[1].stall_buckets and stats[4].stall_buckets:
        check.expect(
            "more threads reduce the zero-traffic fraction (paper 30%->21%)",
            stats[4].zero_fraction <= stats[1].zero_fraction * 1.25,
            f"{stats[4].zero_fraction:.2f} vs {stats[1].zero_fraction:.2f}")

    print(table(["config", "stall buckets", "zero usage", ">90% usage"],
                rows, title="Figure 5 — PCIe utilisation during stalls"))
    print(check.render())
    return {"results": results, "stats": stats, "cdfs": cdfs,
            "paper": PAPER, "check": check}


if __name__ == "__main__":
    run()["check"].assert_all()
