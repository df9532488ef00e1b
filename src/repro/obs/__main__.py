"""Observability CLI: ``python -m repro.obs <command> ...``

* ``validate`` — the exporter's schema check over Chrome-trace JSON
  files (what CI gates on);
* ``report`` — per-stall attribution tables from a trace;
* ``top`` — longest spans per category;
* ``dash`` — run one bench cell with the live telemetry dashboard
  (``--once`` for a single CI-friendly snapshot);
* ``compare`` — exact compare of two ``BENCH_<exp>.json`` determinism
  pins: rc 0 equal, 1 with every differing ``(cell, field)`` listed,
  2 when either file is not a pin document;
* ``lineage`` — percentile-conditioned latency-lineage decomposition
  from a Chrome trace recorded with the lineage profiler on
  (``--lineage`` on the bench CLI, or ``RunOptions(lineage=True)``
  plus a trace path);
* ``diff`` — first-divergence bisector over two journal recordings
  (``--journal`` on the bench CLI): first digest mismatch, first
  divergent event with context, suspect fault site; rc=1 when the
  journals diverge;
* ``replay-to`` — rerun one cell recording only a suspect window
  ``[t0, t1]`` (determinism makes the re-run exact; the windowed
  journal stays small).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .attribution import attribution_report, top_spans
from .export import load_chrome_trace, spans_from_chrome, validate_chrome_trace


def _trace_files_cmd(args) -> int:
    status = 0
    for path in args.files:
        try:
            doc = load_chrome_trace(path)
        except Exception as exc:
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            status = 1
            continue
        if args.command == "validate":
            errors = validate_chrome_trace(doc)
            n_events = len(doc.get("traceEvents") or [])
            if errors:
                print(f"{path}: INVALID ({len(errors)} problem(s))")
                for e in errors[:10]:
                    print(f"  - {e}")
                status = 1
            else:
                print(f"{path}: ok ({n_events} events)")
        elif args.command == "report":
            spans = spans_from_chrome(doc)
            print(attribution_report(spans, title=f"Stall attribution: {path}"))
            print()
        else:
            spans = spans_from_chrome(doc)
            print(f"== {path}: top {args.n} spans per category")
            for cat, items in top_spans(spans, n=args.n).items():
                print(f"  [{cat}]")
                for dur, name, t0 in items:
                    print(f"    {dur * 1e3:>10.3f} ms  {name:<32s} @ {t0:.3f}s")
    return status


def _lineage_cmd(args) -> int:
    import json

    from .profiler import (check_lineage_invariant, exemplars_from_chrome,
                           lineage_report, ops_from_chrome, percentile_bands)
    status = 0
    for path in args.files:
        try:
            doc = load_chrome_trace(path)
        except Exception as exc:
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            status = 1
            continue
        ops = ops_from_chrome(doc)
        if not ops:
            print(f"{path}: no lineage-annotated op spans (was the trace "
                  f"recorded with the lineage profiler on?)", file=sys.stderr)
            status = 1
            continue
        violations = check_lineage_invariant(ops)
        exemplars = exemplars_from_chrome(doc, ops, top_k=args.top)
        if args.json_out:
            out = {
                "schema": "repro-lineage", "version": 1, "source": path,
                "op_count": len(ops),
                "bands": percentile_bands(ops),
                "exemplars": exemplars,
                "invariant_violations": violations,
            }
            p = Path(args.json_out)
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
            print(f"wrote {p}")
        else:
            print(lineage_report(ops, title=f"Latency lineage: {path}",
                                 exemplars=exemplars))
        if violations:
            print(f"{path}: {len(violations)} op(s) violate the "
                  f"segments-sum-to-e2e invariant", file=sys.stderr)
            status = 1
    return status


def _compare_cmd(args) -> int:
    from .compare import compare_baselines, format_comparison, load_baseline
    from .journal import write_divergence_artifact
    try:
        old_doc = load_baseline(args.old)
        new_doc = load_baseline(args.new)
    except (OSError, ValueError) as exc:
        print(f"compare failed: {exc}", file=sys.stderr)
        return 2
    diffs = compare_baselines(old_doc, new_doc)
    print(format_comparison(diffs, old_path=args.old, new_path=args.new))
    if not diffs:
        return 0
    # No-op unless REPRO_DIVERGENCE_DIR is set (CI uploads the directory).
    artifact = write_divergence_artifact(
        f"pin_{old_doc.get('experiment')}",
        {"divergent": True, "old": args.old, "new": args.new,
         "differences": [{"cell": c, "field": f, "old": o, "new": n}
                         for c, f, o, n in diffs]})
    if artifact:
        print(f"divergence artifact: {artifact}")
    return 1


def _diff_cmd(args) -> int:
    import json

    from .journal import first_divergence, format_divergence, load_journal
    try:
        a = load_journal(args.run_a)
        b = load_journal(args.run_b)
    except (OSError, ValueError) as exc:
        print(f"diff failed: {exc}", file=sys.stderr)
        return 2
    report = first_divergence(a, b, context=args.context)
    if args.json_out:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_divergence(report, name_a=args.run_a,
                                name_b=args.run_b))
    return 1 if report["divergent"] else 0


def _replay_to_cmd(args) -> int:
    from ..bench.profiles import get_profile
    from .journal import replay_window
    try:
        profile = get_profile(args.profile)
        out = replay_window(args.system, args.workload, profile,
                            args.t0, args.t1, args.out,
                            seed=args.seed, rollback=args.rollback)
    except (OSError, ValueError) as exc:
        print(f"replay-to failed: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out['path']}: {out['records']} record(s) in window "
          f"[{args.t0}, {args.t1}] ({out['events']} events journal-wide)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace tooling, live dashboard, and pin compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (("validate", "validate Chrome-trace JSON files"),
                        ("report", "per-stall attribution report"),
                        ("top", "longest spans per category")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("files", nargs="+", help="Chrome-trace JSON file(s)")
        p.add_argument("-n", type=int, default=5,
                       help="spans per category for 'top' (default 5)")
        p.set_defaults(func=_trace_files_cmd)

    p = sub.add_parser("dash", help="run one bench cell with the live "
                                    "telemetry dashboard")
    from .dash import add_dash_args, run_dash
    add_dash_args(p)
    p.set_defaults(func=run_dash)

    p = sub.add_parser("compare",
                       help="exact compare of two BENCH_<exp>.json pins")
    p.add_argument("old", help="pin JSON (the reference)")
    p.add_argument("new", help="candidate JSON")
    p.set_defaults(func=_compare_cmd)

    p = sub.add_parser("lineage",
                       help="percentile-conditioned latency-lineage tables "
                            "from a lineage-annotated Chrome trace")
    p.add_argument("files", nargs="+", help="Chrome-trace JSON file(s)")
    p.add_argument("--top", type=int, default=5, metavar="K",
                   help="slowest-op exemplars to show (default 5)")
    p.add_argument("--json", metavar="PATH", default=None, dest="json_out",
                   help="write bands + exemplars as JSON instead of a table")
    p.set_defaults(func=_lineage_cmd)

    p = sub.add_parser("diff",
                       help="first-divergence bisect of two journal "
                            "recordings (rc=1 when they diverge)")
    p.add_argument("run_a", help="journal JSONL[.gz] (the reference)")
    p.add_argument("run_b", help="journal JSONL[.gz] (the candidate)")
    p.add_argument("--context", type=int, default=6, metavar="K",
                   help="surrounding records to show (default 6)")
    p.add_argument("--json", action="store_true", dest="json_out",
                   help="emit the divergence report as JSON")
    p.set_defaults(func=_diff_cmd)

    p = sub.add_parser("replay-to",
                       help="rerun a cell recording only a suspect "
                            "sim-time window")
    p.add_argument("t0", type=float, help="window start (sim seconds)")
    p.add_argument("t1", type=float, help="window end (sim seconds)")
    p.add_argument("out", help="output journal path (.jsonl[.gz])")
    p.add_argument("--system", default="kvaccel",
                   help="system to build (default kvaccel)")
    p.add_argument("--workload", default="A",
                   help="workload letter (default A)")
    p.add_argument("--profile", default="mini",
                   help="experiment profile name (default mini)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rollback", default="disabled",
                   help="kvaccel rollback scheme (default disabled)")
    p.set_defaults(func=_replay_to_cmd)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
