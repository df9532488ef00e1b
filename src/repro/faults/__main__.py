"""CLI for the fault tooling: ``python -m repro.faults``.

Three entry points:

* (default)  — the crash-point sweep: run the deterministic harness
  workload, enumerate every injection site it reaches, crash at each one
  (bounded by ``--faults-budget``), recover and check the
  crash-consistency invariants;
* ``sites``  — print the static fault-site catalogue (``--json`` for
  machines);
* ``soak``   — seeded chaos storms against a full resilience-enabled
  stack (``--mode transient|persistent``), asserting the durability
  invariants.

Exit status is non-zero if any run violates an invariant, so CI gates on
all three directly.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import KvaccelFaultHarness
from .registry import DEFAULT_SEED, fault_seed
from .scheduler import sweep_crash_points


def _parse_seed(value: str) -> int:
    return int(value, 0)


_parse_seed.__name__ = "seed"  # argparse: "invalid seed value", not _parse_seed


def _sites_main(argv) -> int:
    from .sites import DYNAMIC_SUFFIXES, KNOWN_SITES

    parser = argparse.ArgumentParser(
        prog="python -m repro.faults sites",
        description="Print the static fault-site catalogue.")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of a site-per-line listing")
    args = parser.parse_args(argv)
    sites = sorted(KNOWN_SITES)
    if args.json:
        print(json.dumps({"sites": sites,
                          "dynamic_suffixes": list(DYNAMIC_SUFFIXES)},
                         indent=2))
    else:
        print(f"{len(sites)} static sites "
              f"(+ dynamic suffixes: {', '.join(DYNAMIC_SUFFIXES)}):")
        for site in sites:
            print(f"  {site}")
    return 0


def _soak_main(argv) -> int:
    from ..resil.soak import SOAK_MODES, SoakConfig, run_soak

    parser = argparse.ArgumentParser(
        prog="python -m repro.faults soak",
        description="Seeded chaos storm against a resilience-enabled "
                    "KVACCEL stack.")
    parser.add_argument("--mode", choices=SOAK_MODES, default="transient",
                        help="fault storm flavour (default: transient)")
    parser.add_argument(
        "--seed", type=_parse_seed,
        default=fault_seed(),
        help="workload/fault seed (default: $REPRO_FAULT_SEED or "
             f"{DEFAULT_SEED:#x})")
    parser.add_argument("--ops", type=int, default=400,
                        help="workload operations (default: 400)")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload size multiplier (default: 1)")
    parser.add_argument("--fault-rate", type=float, default=0.02,
                        help="per-hit FAIL probability for transient "
                             "storms (default: 0.02)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the full result (incl. health events) "
                             "as JSON")
    args = parser.parse_args(argv)
    result = run_soak(SoakConfig(mode=args.mode, seed=args.seed,
                                 ops=args.ops, scale=args.scale,
                                 fault_rate=args.fault_rate))
    for line in result.summary_lines():
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"result written to {args.json}")
    return 0 if result.ok else 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Subcommand dispatch first; the bare invocation stays the crash-point
    # sweep for backwards compatibility with existing CI pipelines.
    if argv and argv[0] == "sites":
        return _sites_main(argv[1:])
    if argv and argv[0] == "soak":
        return _soak_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Deterministic crash-point sweep over a KVACCEL stack.")
    parser.add_argument(
        "--faults-budget", type=int, default=None, metavar="N",
        help="cap the number of crash runs (default: every distinct site)")
    parser.add_argument(
        "--seed", type=_parse_seed,
        default=fault_seed(),
        help="workload/fault seed (default: $REPRO_FAULT_SEED or "
             f"{DEFAULT_SEED:#x})")
    parser.add_argument(
        "--scale", type=int, default=1,
        help="workload size multiplier (default: 1)")
    parser.add_argument(
        "--site-filter", default=None, metavar="SUBSTR",
        help="only crash at sites containing SUBSTR")
    parser.add_argument(
        "--summary", default=None, metavar="FILE",
        help="write a markdown summary (for CI job summaries)")
    parser.add_argument(
        "--list-sites", action="store_true",
        help="trace the workload, list reachable sites, and exit")
    parser.add_argument(
        "--trace-tail", type=int, default=0, metavar="N",
        help="record the last N trace records before each crash and print "
             "them for failing runs (default: 0 = off)")
    args = parser.parse_args(argv)

    harness = KvaccelFaultHarness(seed=args.seed, scale=args.scale,
                                  trace_tail=args.trace_tail)

    if args.list_sites:
        trace = harness.trace()
        counts: dict[str, int] = {}
        for hit in trace:
            counts[hit.site] = counts.get(hit.site, 0) + 1
        print(f"{len(counts)} distinct sites, {len(trace)} total hits "
              f"(seed={args.seed:#x}):")
        for site in sorted(counts):
            print(f"  {site:32s} x{counts[site]}")
        return 0

    report = sweep_crash_points(harness, budget=args.faults_budget,
                                site_filter=args.site_filter)
    for line in report.summary_lines():
        print(line)
    if args.trace_tail > 0:
        for rep in report.reports:
            if rep.ok or not rep.trace_tail:
                continue
            print(f"\ntrace tail before crash at {rep.site}"
                  f"#{rep.occurrence} (last {len(rep.trace_tail)}):")
            for rec in rep.trace_tail:
                if rec["kind"] == "span":
                    t1 = rec["t1"]
                    end = f"{t1:.6f}" if t1 is not None else "open"
                    print(f"  [{rec['t0']:.6f}..{end}] "
                          f"{rec['cat']}/{rec['name']} ({rec['actor']})")
                elif rec["kind"] == "instant":
                    print(f"  [{rec['t']:.6f}] {rec['cat']}/{rec['name']} "
                          f"({rec['actor']}) {rec['args'] or ''}")
    if args.site_filter is not None and not report.reports:
        print(f"error: --site-filter {args.site_filter!r} matched none of "
              f"the {report.sites_traced} traced sites", file=sys.stderr)
        return 2
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(report.to_markdown())
        print(f"summary written to {args.summary}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
