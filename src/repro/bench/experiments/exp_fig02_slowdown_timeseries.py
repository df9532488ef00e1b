"""Figure 2 — per-second throughput of RocksDB and ADOC, with and without
the write slowdown.

Paper result: without slowdown, throughput periodically collapses to zero
(write stalls); with slowdown the zeros disappear and a low-but-nonzero
floor (~2 Kops/s) appears instead, at the cost of lower bursts.
"""

from __future__ import annotations

from ..report import series_sparkline, shape_check
from ..runner import RunSpec
from .common import resolve_profile, run_cells

PAPER = {
    "floor_kops": 2.0,        # "consistent service at up to 2 Kops/s"
    "note": "w/o slowdown: dips to 0; w/ slowdown: no zeros, stable floor",
}


def _zero_buckets(result) -> int:
    """Count near-zero throughput buckets after warmup (first 10%)."""
    vals = result.write_ops_series
    warm = len(vals) // 10
    period = result.extra["sample_period"]
    # "zero" = under 200 ops/s equivalent
    return sum(1 for v in vals[warm:] if v / period < 200.0)


def run(profile=None, quick: bool = False,
        options=None) -> dict:
    profile = resolve_profile(profile, quick)
    specs = [
        RunSpec("rocksdb", "A", 1, slowdown=False),
        RunSpec("adoc", "A", 1, slowdown=False),
        RunSpec("rocksdb", "A", 1, slowdown=True),
        RunSpec("adoc", "A", 1, slowdown=True),
    ]
    results = run_cells(specs, profile, options)

    check = shape_check("Fig 2: slowdown removes zero-throughput stalls")
    for system in ("RocksDB(1)", "ADOC(1)"):
        wo = results[f"{system} w/o slowdown"]
        w = results[system]
        check.expect(
            f"{system}: stalls occur without slowdown",
            wo.stall_events > 0 or _zero_buckets(wo) > 0,
            f"stall_events={wo.stall_events}, zero_buckets={_zero_buckets(wo)}")
        check.expect_order(
            f"{system}: slowdown reduces hard-stall time",
            wo.total_stall_time, w.total_stall_time, slack=1.0)
        check.expect(
            f"{system}: slowdown events appear only with slowdown on",
            w.slowdown_events > 0 and wo.slowdown_events == 0,
            f"w={w.slowdown_events}, wo={wo.slowdown_events}")

    lines = ["Figure 2 — per-second write throughput (sparkline = full run)"]
    for label, r in results.items():
        per_s = [v / r.extra["sample_period"] / 1000 for v in r.write_ops_series]
        lines.append(series_sparkline(per_s, label=f"  {label:26s} "))
        lines.append(
            f"    avg={r.write_throughput_ops/1000:.1f} Kops/s, "
            f"stall_time={r.total_stall_time:.2f}s, "
            f"delayed_time={r.total_delayed_time:.2f}s, "
            f"zero_buckets={_zero_buckets(r)}")
    lines.append(f"paper: {PAPER['note']}")
    lines.append(check.render())
    print("\n".join(lines))

    return {"results": results, "paper": PAPER, "check": check,
            "zero_buckets": {k: _zero_buckets(v) for k, v in results.items()}}


if __name__ == "__main__":
    run()["check"].assert_all()
