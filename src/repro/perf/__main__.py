"""Performance harness CLI.

Usage::

    python -m repro.perf                      # kernel microbenchmarks
    python -m repro.perf --bench timeout_chain --repeats 5
    python -m repro.perf profile timeout_chain   # kernel self-profile
    python -m repro.perf profile mini --json p.json  # profile a real cell
    python -m repro.perf profile paper-smoke  # CI's paper-capacity smoke

The table is raw events/sec on this host — a signal to read next to a run
of the parent checkout, not a gate (that is ``benchmarks/e2e``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import (
    KERNEL_BENCHES,
    format_kernel_profile,
    profile_cell,
    profile_kernel_bench,
    run_kernel_benches,
)

# ``profile`` targets that run a real experiment cell: target -> profile.
_CELL_TARGETS = {"mini": "mini256", "paper-smoke": "paper-smoke"}


def _profile_main(argv) -> int:
    """``python -m repro.perf profile <target>`` — kernel self-profiling.

    Targets are the microbenchmark names plus ``mini`` (one real kvaccel
    mini-profile cell through the runner).  Prints the sorted hot-site
    table; ``--json`` writes the raw profile dict.
    """
    targets = sorted(KERNEL_BENCHES) + sorted(_CELL_TARGETS)
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf profile",
        description="Wall-clock self-profile of the DES kernel: events by "
                    "class, resume counts, peak pending events, macro-event "
                    "coalescing and heap traffic.")
    parser.add_argument("target", choices=targets,
                        help="microbenchmark to profile, 'mini' for a real "
                             "experiment cell, or 'paper-smoke' for the "
                             "truncated paper-constant cell CI runs")
    parser.add_argument("--json", metavar="PATH", default=None,
                        dest="json_out",
                        help="write the raw kernel profile as JSON")
    args = parser.parse_args(argv)

    doc = {"schema": "repro-kernel-profile", "version": 1,
           "target": args.target}
    if args.target in _CELL_TARGETS:
        out = profile_cell(_CELL_TARGETS[args.target])
        prof = out["profile"]
        doc["peak_rss_mb"] = out["peak_rss_mb"]
        print(f"kernel profile: cell {out['spec']} "
              f"({out['events']:,d} events in {out['wall_s']:.2f}s, "
              f"peak RSS {out['peak_rss_mb']:.1f} MiB)")
    else:
        r = profile_kernel_bench(args.target)
        prof = r.profile
        print(f"kernel profile: bench {r.name} "
              f"({r.events:,d} events in {r.wall_s:.2f}s)")
    print(format_kernel_profile(prof))

    if args.json_out:
        path = Path(args.json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc["profile"] = prof
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
        description="Measure DES-kernel events/sec on this host.")
    parser.add_argument("--bench", action="append", default=None,
                        metavar="NAME", dest="benches",
                        help=f"run only this microbenchmark (repeatable); "
                             f"available: {', '.join(sorted(KERNEL_BENCHES))}")
    parser.add_argument("--repeats", type=int, default=5, metavar="N",
                        help="best-of-N per microbenchmark (default 5)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    try:
        benches = run_kernel_benches(args.benches, repeats=args.repeats)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    print(f"kernel microbenchmarks (best of {args.repeats}):")
    print(f"  {'benchmark':18s} {'events':>10s} {'wall s':>8s} "
          f"{'events/sec':>12s}")
    for name, r in benches.items():
        print(f"  {name:18s} {r.events:>10,d} {r.wall_s:>8.3f} "
              f"{r.events_per_sec:>12,.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
