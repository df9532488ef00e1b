"""Command-line experiment runner.

Usage::

    python -m repro.bench                 # list experiments
    python -m repro.bench --list          # same, explicit
    python -m repro.bench fig12           # run one (default profile)
    python -m repro.bench fig12 --jobs 4  # cells fan out over 4 workers
    python -m repro.bench all --quick     # everything, quick profile
    REPRO_PROFILE=mini python -m repro.bench fig11

Exit status is non-zero if any shape check fails.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from .experiments import ALL
from .experiments.common import splice_path
from .runner import RunOptions


def _list_experiments() -> int:
    print("available experiments:")
    for name, module in sorted(ALL.items()):
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:7s} {doc}")
    return 0


def _pin_path(target: str, name: str, multi: bool) -> Path:
    """Where ``--json [target]`` writes experiment ``name``'s pin (its
    ``LINEAGE_<exp>.json`` goes in the same directory)."""
    from .baseline import default_baseline_path
    if target == "":
        return default_baseline_path(name, "benchmarks")
    if Path(target).is_dir():
        return default_baseline_path(name, target)
    if multi:
        # one file per experiment even when a file path was given
        return Path(splice_path(target, ".json", name))
    return Path(target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run paper-reproduction experiments.")
    parser.add_argument("experiment", nargs="?",
                        help=f"one of {', '.join(sorted(ALL))}, or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--quick", action="store_true",
                        help="use the fast mini256 profile")
    parser.add_argument("--profile", metavar="NAME", default=None,
                        help="run under a named profile: paper, "
                             "paper-smoke (truncated ~10^6-op slice of the "
                             "paper constants), mini, or mini<N>; "
                             "overrides --quick and REPRO_PROFILE")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run independent cells on N worker processes "
                             "(results are deterministic and ordered by "
                             "spec regardless of N)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record a Chrome trace per experiment cell "
                             "(open in Perfetto / chrome://tracing)")
    parser.add_argument("--report", action="store_true",
                        help="with --trace: print per-stall attribution "
                             "reports from the recorded traces")
    parser.add_argument("--shards", metavar="N[,N...]", default=None,
                        help="shard counts for the cluster scaling sweep "
                             "(e.g. 1,2,4,8); ignored by experiments "
                             "without a cluster dimension")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the experiment's JSON report artifact "
                             "(cluster: the scaling/telemetry report); "
                             "ignored by experiments without one")
    parser.add_argument("--json", metavar="PATH", nargs="?",
                        const="", default=None, dest="json_out",
                        help="write a BENCH_<exp>.json determinism pin "
                             "per experiment (telemetry + health enabled; "
                             "check it with 'python -m repro.obs compare'); "
                             "PATH may be a file (single experiment) or "
                             "an existing directory (default: benchmarks/)")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="record the deterministic flight recorder per "
                             "cell (JSONL, gzip when PATH ends in .gz); "
                             "bisect two recordings with "
                             "'python -m repro.obs diff'")
    parser.add_argument("--lineage", action="store_true",
                        help="run with the latency-lineage profiler and "
                             "print a percentile-conditioned segment "
                             "decomposition per cell (with --json, also "
                             "write LINEAGE_<exp>.json next to the "
                             "pin)")
    args = parser.parse_args(argv)
    if args.report and not args.trace:
        parser.error("--report requires --trace")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    named_profile = None
    if args.profile is not None:
        from .profiles import get_profile
        try:
            named_profile = get_profile(args.profile)
        except ValueError as exc:
            parser.error(str(exc))

    if args.list or not args.experiment:
        return _list_experiments()

    names = sorted(ALL) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in ALL]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        print("use --list to see what is available", file=sys.stderr)
        return 2

    failed = []
    baselines = []
    traces = []
    journals = []
    for name in names:
        print(f"\n=== {name} " + "=" * (68 - len(name)))
        # With several experiments, splice the name into the base paths so
        # files don't collide (cells of different experiments can share
        # labels and indices).
        multi = len(names) > 1
        trace = journal = None
        if args.trace:
            trace = (splice_path(args.trace, ".json", name) if multi
                     else args.trace)
        if args.journal:
            journal = (splice_path(args.journal, ".jsonl.gz", name) if multi
                       else args.journal)
        pin = (_pin_path(args.json_out, name, multi)
               if args.json_out is not None else None)
        options = RunOptions(jobs=args.jobs, trace_path=trace,
                             telemetry=args.json_out is not None,
                             lineage=args.lineage, journal_path=journal)
        # Experiment-specific knobs ride through only where accepted, so
        # `all --shards 1,2` doesn't trip experiments without that axis.
        kwargs = {}
        accepted = inspect.signature(ALL[name].run).parameters
        if named_profile is not None:
            kwargs["profile"] = named_profile
        if args.shards is not None and "shards" in accepted:
            kwargs["shards"] = tuple(
                int(n) for n in args.shards.replace("{", "").replace(
                    "}", "").split(",") if n.strip())
        if args.out is not None and "out" in accepted:
            kwargs["out"] = args.out
        out = ALL[name].run(quick=args.quick, options=options, **kwargs)
        if not out["check"].passed:
            failed.append(name)
        # Microbench experiments (tab06, sec6d) return no per-cell results.
        traces.extend(r.extra["trace_path"]
                      for r in out.get("results", {}).values()
                      if "trace_path" in r.extra)
        journals.extend(r.extra["journal_path"]
                        for r in out.get("results", {}).values()
                        if r.extra.get("journal_path"))
        if args.lineage:
            from ..obs import lineage_report
            lineage_cells = {}
            for label, r in out.get("results", {}).items():
                lin = r.extra.get("lineage")
                if not lin or not lin.get("ops"):
                    continue
                lineage_cells[label] = lin
                print()
                print(lineage_report(lin["ops"],
                                     title=f"{name} / {label}",
                                     exemplars=lin.get("exemplars")))
            if pin is not None and lineage_cells:
                import json as _json
                lpath = pin.parent / f"LINEAGE_{name}.json"
                lpath.parent.mkdir(parents=True, exist_ok=True)
                lpath.write_text(_json.dumps(
                    {"schema": "repro-lineage", "version": 1,
                     "experiment": name, "cells": lineage_cells},
                    indent=2, sort_keys=True) + "\n")
                print(f"\nwrote {lpath}")
        if args.json_out is not None and "results" not in out:
            # Microbench experiments (tab06, sec6d) have no per-cell
            # RunResults — nothing to baseline.
            print(f"(no per-cell results — no baseline for {name})")
        elif args.json_out is not None:
            from .baseline import build_baseline, write_baseline
            from .experiments.common import resolve_profile
            profile = resolve_profile(named_profile, args.quick)
            doc = build_baseline(name, profile.name, out["results"],
                                 checks_passed=out["check"].passed,
                                 quick=args.quick)
            baselines.append(write_baseline(doc, pin))

    if args.trace:
        print(f"\n{len(traces)} trace file(s) written:")
        for p in traces:
            print(f"  {p}")
        if args.report:
            from ..obs import (attribution_report, load_chrome_trace,
                               spans_from_chrome)
            for p in traces:
                spans = spans_from_chrome(load_chrome_trace(p))
                print()
                print(attribution_report(spans, title=p))
    if args.journal:
        print(f"\n{len(journals)} journal file(s) written:")
        for p in journals:
            print(f"  {p}")
    if args.json_out is not None:
        print(f"\n{len(baselines)} baseline file(s) written:")
        for p in baselines:
            print(f"  {p}")
    if failed:
        print(f"\nFAILED shape checks: {failed}", file=sys.stderr)
        return 1
    print(f"\nall shape checks passed ({len(names)} experiment(s)).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
