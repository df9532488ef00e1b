"""Performance harness CLI.

Usage::

    python -m repro.perf                      # kernel microbenchmarks
    python -m repro.perf --bench timeout_chain --repeats 5
    python -m repro.perf --suite fig12 --quick --jobs 4
    python -m repro.perf --json perf.json     # machine-readable artifact
    python -m repro.perf profile timeout_chain   # kernel self-profile
    python -m repro.perf profile mini --json p.json  # profile a real cell
    python -m repro.perf profile paper-smoke  # CI's paper-capacity smoke

With the pinned pre-fast-path baseline present
(``benchmarks/PERF_BASELINE.json``), a speedup column is printed; the
headline number is the ``timeout_chain`` speedup (Timeout churn dominates
real experiment cells).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import (
    HEADLINE_BENCH,
    KERNEL_BENCHES,
    bench_suite_cells,
    build_perf_doc,
    compare_perf,
    default_baseline_path,
    format_kernel_profile,
    load_perf_doc,
    profile_kernel_bench,
    profile_mini_cell,
    profile_smoke_cell,
    run_kernel_benches,
)


def _profile_main(argv) -> int:
    """``python -m repro.perf profile <target>`` — kernel self-profiling.

    Targets are the microbenchmark names plus ``mini`` (one real kvaccel
    mini-profile cell through the runner).  Prints the sorted hot-site
    table; ``--json`` writes the raw profile dict.
    """
    targets = sorted(KERNEL_BENCHES) + ["mini", "paper-smoke"]
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf profile",
        description="Wall-clock self-profile of the DES kernel: events by "
                    "class, resume counts, peak pending events, macro-event "
                    "coalescing, heap and timeout-pool traffic.")
    parser.add_argument("target", choices=targets,
                        help="microbenchmark to profile, 'mini' for a real "
                             "experiment cell, or 'paper-smoke' for the "
                             "truncated paper-constant cell CI runs")
    parser.add_argument("--json", metavar="PATH", default=None,
                        dest="json_out",
                        help="write the raw kernel profile as JSON")
    args = parser.parse_args(argv)

    if args.target in ("mini", "paper-smoke"):
        out = (profile_mini_cell() if args.target == "mini"
               else profile_smoke_cell())
        prof = out["profile"]
        print(f"kernel profile: cell {out['spec']} "
              f"({out['events']:,d} events in {out['wall_s']:.2f}s)")
    else:
        r = profile_kernel_bench(args.target)
        prof = r.profile
        print(f"kernel profile: bench {r.name} "
              f"({r.events:,d} events in {r.wall_s:.2f}s)")
    print(format_kernel_profile(prof))

    if args.json_out:
        path = Path(args.json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"schema": "repro-kernel-profile", "version": 1,
               "target": args.target, "profile": prof}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {path}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Measure harness performance: kernel events/sec and "
                    "experiment cells/min.")
    parser.add_argument("--bench", action="append", default=None,
                        metavar="NAME", dest="benches",
                        help=f"run only this microbenchmark (repeatable); "
                             f"available: {', '.join(sorted(KERNEL_BENCHES))}")
    parser.add_argument("--repeats", type=int, default=5, metavar="N",
                        help="best-of-N per microbenchmark (default 5)")
    parser.add_argument("--suite", metavar="EXP", default=None,
                        help="also time a full experiment's cells "
                             "(cells/min) through the real runner")
    parser.add_argument("--quick", action="store_true",
                        help="with --suite: use the fast mini256 profile")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="with --suite: fan cells out over N workers")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="baseline to compare against (default: the "
                             "pinned benchmarks/PERF_BASELINE.json)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        dest="json_out",
                        help="write results as a perf-baseline document")
    parser.add_argument("--fail-below", type=float, default=None,
                        metavar="RATIO",
                        help="exit 1 if any microbenchmark's events/s falls "
                             "below RATIO x the baseline (0.85 = fail on a "
                             ">15%% regression); the CI perf gate")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    try:
        benches = run_kernel_benches(args.benches, repeats=args.repeats)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    baseline = None
    baseline_path = Path(args.baseline) if args.baseline else \
        default_baseline_path()
    if baseline_path.exists():
        baseline = load_perf_doc(baseline_path)
    elif args.baseline:
        print(f"baseline not found: {baseline_path}", file=sys.stderr)
        return 2

    speedups = compare_perf(baseline, benches) if baseline else {}

    print(f"kernel microbenchmarks (best of {args.repeats}):")
    header = f"  {'benchmark':18s} {'events':>10s} {'wall s':>8s} " \
             f"{'events/sec':>12s}"
    if speedups:
        header += f" {'vs baseline':>12s}"
    print(header)
    for name, r in benches.items():
        line = f"  {name:18s} {r.events:>10,d} {r.wall_s:>8.3f} " \
               f"{r.events_per_sec:>12,.0f}"
        if name in speedups:
            line += f" {speedups[name]:>11.2f}x"
        print(line)
    if HEADLINE_BENCH in speedups:
        print(f"\nheadline ({HEADLINE_BENCH}): "
              f"{speedups[HEADLINE_BENCH]:.2f}x vs "
              f"{baseline_path}")

    suite = None
    if args.suite:
        try:
            suite = bench_suite_cells(args.suite, quick=args.quick,
                                      jobs=args.jobs)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(f"\nsuite {suite['experiment']}: {suite['cells']} cells in "
              f"{suite['wall_s']:.1f}s = {suite['cells_per_min']:.2f} "
              f"cells/min (jobs={suite['jobs']}, "
              f"{suite['events_per_sec']:,.0f} events/sec aggregate)")

    if args.json_out:
        doc = build_perf_doc(benches, suite)
        path = Path(args.json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {path}")

    if args.fail_below is not None:
        if not speedups:
            print("--fail-below: no baseline to compare against",
                  file=sys.stderr)
            return 2
        regressed = {n: s for n, s in speedups.items()
                     if s < args.fail_below}
        if regressed:
            print(f"\nPERF REGRESSION (gate: {args.fail_below:.2f}x of "
                  f"{baseline_path}):", file=sys.stderr)
            for name, s in sorted(regressed.items()):
                print(f"  {name}: {s:.2f}x baseline events/s",
                      file=sys.stderr)
            return 1
        print(f"\nperf gate passed: all benches >= "
              f"{args.fail_below:.2f}x baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
