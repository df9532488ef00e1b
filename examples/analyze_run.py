#!/usr/bin/env python3
"""Post-run analysis: where did every device byte go?

Runs workload A on RocksDB-sim and KVACCEL, then prints the storage
engineer's accounting: write amplification by source (WAL / flush /
compaction / redirect), stall cause breakdown, and device byte totals —
the same accounting that backs the paper's bandwidth-reclamation argument.

Run:  python examples/analyze_run.py

With ``--trace trace.json`` (a Chrome trace recorded via
``python -m repro.bench fig11 --trace trace.json``) it instead prints the
top-5 longest spans per category plus the per-stall attribution table.

With ``--health`` it runs a stall-prone RocksDB(1)-w/o-slowdown cell and
a KVACCEL cell with the telemetry hub + health rules enabled, then prints
each cell's HealthEvent timeline — the SLO-rule view of the same run.

With ``--lineage`` it runs the same two cells with the latency-lineage
profiler and prints each cell's percentile-conditioned critical-path
decomposition — which segment (stall / wal / queue / nand / ...) the
p50/p90/p99 latency actually went to, plus the slowest-op span trees.

With ``--journal`` it runs a KVACCEL cell with the deterministic flight
recorder and prints the kernel event-class histogram plus the digest
checkpoint cadence — the recording a ``python -m repro.obs diff`` bisect
would walk.
"""

import argparse
import copy

from repro.bench.profiles import mini_profile
from repro.bench.report import table
from repro.bench.runner import RunSpec, build_system
from repro.metrics import (
    RunCollector,
    device_byte_accounting,
    stall_breakdown,
    write_amplification,
)
from repro.sim import Environment
from repro.workload import DriverConfig, FillRandomDriver


def analyze_trace(path: str, n: int = 5) -> None:
    """Print the longest spans per category and stall attribution."""
    from repro.obs import (
        attribution_report,
        load_chrome_trace,
        spans_from_chrome,
        top_spans,
    )

    spans = spans_from_chrome(load_chrome_trace(path))
    print(f"{path}: {len(spans)} spans")
    for cat, items in sorted(top_spans(spans, n=n).items()):
        print(f"\ntop {len(items)} longest '{cat}' spans:")
        for dur, name, t0 in items:
            print(f"  {dur*1000:10.3f} ms  {name:32s} @ t={t0:.3f}s")
    print()
    print(attribution_report(spans, title=path))


def analyze_health() -> None:
    """Run a stall-prone cell and a KVACCEL cell; print health timelines."""
    from repro.bench.runner import run_workload

    profile = mini_profile(256)
    for spec in [RunSpec("rocksdb", "A", 1, slowdown=False),
                 RunSpec("kvaccel", "A", 1, rollback="disabled")]:
        result = run_workload(spec, profile, telemetry=True)
        events = result.health_events
        enters = [e for e in events if e["phase"] == "enter"]
        print(f"== {spec.display}: {len(enters)} health firing(s) "
              f"over {result.duration:.1f}s")
        if not events:
            print("  (no health events — the run stayed within SLO)")
        for e in events:
            print(f"  t={e['t']:9.3f}  [{e['severity']:>8s}]  "
                  f"{e['rule']:<28s} {e['phase']:<5s}  {e['message']}")
        for rule, count in sorted(result.health_summary().items()):
            print(f"  total {rule}: {count}")
        print()


def analyze_lineage() -> None:
    """Run a stall-prone cell and a KVACCEL cell; print lineage tables."""
    from repro.bench.runner import run_workload
    from repro.obs import check_lineage_invariant, lineage_report

    profile = mini_profile(256)
    for spec in [RunSpec("rocksdb", "A", 1, slowdown=False),
                 RunSpec("kvaccel", "A", 1, rollback="disabled")]:
        result = run_workload(spec, profile, lineage=True)
        lin = result.extra["lineage"]
        print(lineage_report(lin["ops"], title=spec.display,
                             exemplars=lin["exemplars"]))
        problems = check_lineage_invariant(lin["ops"])
        print(f"  invariant (sum(segments) == e2e): "
              f"{'OK' if not problems else 'VIOLATED'} "
              f"over {lin['op_count']} ops")
        print()


def analyze_journal() -> None:
    """Run a KVACCEL cell with the flight recorder; print its contents."""
    from repro.bench.runner import run_workload
    from repro.obs import Journal

    profile = mini_profile(256)
    spec = RunSpec("kvaccel", "A", 1, rollback="disabled")
    result = run_workload(spec, profile,
                          journal=Journal(period=profile.sample_period))
    journal = result.extra["journal"]
    total = journal.event_count
    print(f"== {spec.display}: {total} kernel events, "
          f"{journal.site_count} site visits, "
          f"{journal.checkpoint_count} digest checkpoints "
          f"over {result.duration:.1f}s")

    hist = journal.event_class_histogram()
    rows = [[cls, count, f"{100.0 * count / total:.1f}%"]
            for cls, count in sorted(hist.items(),
                                     key=lambda kv: -kv[1])]
    print(table(["event class", "count", "share"], rows,
                title="Kernel event-class histogram"))
    print()

    digests = [rec for rec in journal.records if rec[0] == "digest"]
    layers = sorted({rec[3] for rec in digests})
    times = sorted({rec[2] for rec in digests})
    gaps = [b - a for a, b in zip(times, times[1:])]
    rows = [["layers digested", ", ".join(layers)],
            ["checkpoints", str(journal.checkpoint_count)],
            ["digest records", str(len(digests))],
            ["first checkpoint", f"t={times[0]:.3f}s" if times else "-"],
            ["last checkpoint", f"t={times[-1]:.3f}s" if times else "-"],
            ["median cadence",
             f"{sorted(gaps)[len(gaps) // 2]:.3f}s" if gaps else "-"]]
    print(table(["checkpoint cadence", ""], rows,
                title=f"State digests (period={journal.period}s)"))
    print("\nBisect two such recordings with:  "
          "python -m repro.obs diff runA.jsonl.gz runB.jsonl.gz")


parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--trace", metavar="FILE", default=None,
                    help="analyze a recorded Chrome trace instead of "
                         "running the workloads")
parser.add_argument("--health", action="store_true",
                    help="run with telemetry + health rules and print the "
                         "HealthEvent timeline instead of the byte tables")
parser.add_argument("--lineage", action="store_true",
                    help="run with the latency-lineage profiler and print "
                         "the percentile-conditioned segment decomposition")
parser.add_argument("--journal", action="store_true",
                    help="run with the deterministic flight recorder and "
                         "print the event-class histogram + checkpoint "
                         "cadence")
args = parser.parse_args()
if args.trace:
    analyze_trace(args.trace)
    raise SystemExit(0)
if args.health:
    analyze_health()
    raise SystemExit(0)
if args.lineage:
    analyze_lineage()
    raise SystemExit(0)
if args.journal:
    analyze_journal()
    raise SystemExit(0)

profile = mini_profile(256)

rows_wa, rows_stall = [], []
for spec in [RunSpec("rocksdb", "A", 1, slowdown=True),
             RunSpec("kvaccel", "A", 1, rollback="disabled")]:
    env = Environment()
    db, ssd, cpu = build_system(env, profile, spec)
    cfg = DriverConfig(duration=profile.duration,
                       key_space=profile.key_space)
    driver = FillRandomDriver(env, db, cfg)
    collector = RunCollector(env, spec.display, driver,
                             sample_period=profile.sample_period)
    collector.attach_db_stats(db.stats)
    env.run(until=driver.start())
    collector.stop()

    redirect = ssd.devlsm.total_bytes
    result = collector.result([(db, ssd, cpu)])

    wa = write_amplification(db, user_bytes=driver.write_bytes,
                             redirect_bytes=redirect)
    sb = stall_breakdown(result)
    acct = device_byte_accounting(ssd)

    b = wa.breakdown()
    rows_wa.append([spec.display, f"{wa.factor:.2f}",
                    f"{b.get('wal', 0):.2f}", f"{b.get('flush', 0):.2f}",
                    f"{b.get('compaction', 0):.2f}",
                    f"{b.get('redirect', 0):.2f}"])
    rows_stall.append([spec.display, sb.stall_events,
                       f"{sb.stall_fraction*100:.0f}%",
                       f"{sb.delayed_fraction*100:.0f}%",
                       f"{sb.longest_stall*1000:.1f}ms",
                       f"{acct['pcie_bytes']/(1<<20):.0f} MiB"])
    db.close()

print(table(["system", "WA", "wal x", "flush x", "compact x", "redirect x"],
            rows_wa, title="Write amplification per user byte"))
print()
print(table(["system", "stalls", "stall time", "delayed time",
             "longest stall", "PCIe bytes"],
            rows_stall, title="Stall breakdown"))
print("\nReading the tables: KVACCEL's redirect bytes replace would-be "
      "stall time; its main-LSM WA shrinks because redirected data "
      "bypasses WAL+flush during the pressure windows.")
