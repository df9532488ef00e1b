#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the KVACCEL reproduction.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--repeats R] [--trace 1] [--json OUT]
    python3 benchmarks/e2e/run.py --check-repeat
    python3 benchmarks/e2e/run.py compare A.json B.json [--allow-model-change]
    python3 benchmarks/e2e/run.py --list

Every measurement is one experiment cell (``repro.bench.run_workload``) in
a fresh single-threaded child process; cells never run concurrently.
End-to-end metrics are measured with all tracing off.  ``--trace 1`` runs
the traced passes instead: cProfile summed by layer, the program's own
counters, and isolated drills.  README.md explains every number.

With one workload selected, the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics
``BENCHMARK.json`` declares for that trace mode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from cells import LAYERS, MOVES, PLANE_OFF_TWIN, WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 150
# Children per side of harness.trace_overhead_ratio and obs.overhead_ratio:
# a ratio of two single ~1 s children is mostly host noise.
RATIO_REPEATS = 3
# Variables that would silently change what a cell simulates, and the two
# that decide whether imports are served from a bytecode cache inside the
# checkout (set-up time is 0.18 s with it, 0.30 s without).
SCRUBBED_ENV = ("REPRO_PROFILE", "REPRO_SCHED", "REPRO_FAULT_SEED",
                "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
# Everything an untraced run prints, with its unit.  Host-time metrics vary
# run to run; cell_wall_s and host_slowdown are what the two
# speed-normalised metrics are made of (see child.py).  The simulated
# outputs are simulated time and must repeat bit for bit; a cell omits the
# ones it does not define.
HOST_METRICS = {"setup_s": "s", "cell_wall_norm_s": "s",
                "sim_ops_per_norm_s": "ops/s", "peak_rss_mb": "MiB",
                "cell_wall_s": "s", "host_slowdown": "ratio"}
SIM_OUTPUTS = {"sim_kops": "kops/sim_s",
               "sim_write_kops": "kops/sim_s", "sim_read_kops": "kops/sim_s",
               "sim_write_p99_us": "sim_us", "sim_read_p99_us": "sim_us",
               "sim_stall_s": "sim_s", "sim_efficiency": "kops/s/cpu%",
               "sim_link_amp": "bytes/byte"}
# Simulated outputs that some cell does not define travel in the layer
# ledger (where 0 reads "not exercised") under the layer that produces them.
SIM_AS_LAYER = {"sim_write_kops": "workload.write_kops",
                "sim_read_kops": "workload.read_kops",
                "sim_write_p99_us": "workload.write_p99_us",
                "sim_read_p99_us": "workload.read_p99_us",
                "sim_stall_s": "lsm.stall_s",
                "sim_efficiency": "metrics.efficiency",
                "sim_link_amp": "device.link_amp"}


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# -- children -----------------------------------------------------------------

def spawn(mode: str, workload: str, seed: int) -> dict:
    """Run child.py once; never raises.  ``ok`` is False when the child
    crashed, timed out, printed no result or broke a conservation identity."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    profile, share = (WORKLOADS[workload]["cell"] if workload in WORKLOADS
                      else ("-", 0))
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
           profile, repr(share), repr(time.monotonic())]
    record = {"mode": mode, "workload": workload, "ok": False}
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["error"] = f"timed out after {CHILD_TIMEOUT_S}s"
        return record
    record["stderr_lines"] = [ln for ln in proc.stderr.splitlines() if ln]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        record["error"] = (f"exit {proc.returncode}: "
                           + " | ".join(record["stderr_lines"][-3:]))
        return record
    record.update(json.loads(lines[-1]))
    record["ok"] = not record.get("broken_identities")
    return record


# -- statistics ------------------------------------------------------------------

def quartiles(values: list) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else [values[0]] * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list) -> dict:
    """Timed children of one workload -> host quartiles, simulated outputs
    and the repeat-identity verdict."""
    good = [r for r in runs if r["ok"]]
    out = {"host": {}, "sim": {}, "sim_digest": None, "deterministic": False}
    if not good:
        return out
    out["host"] = {m: quartiles([r[m] for r in good]) for m in HOST_METRICS}
    first = good[0]
    out["sim"] = {m: first[m] for m in SIM_OUTPUTS if first[m] is not None}
    out["sim_digest"] = first["sim_digest"]
    out["events"] = first["events"]
    out["deterministic"] = all(
        r["sim_digest"] == first["sim_digest"] and r["events"] == first["events"]
        for r in good)
    return out


# -- measuring -------------------------------------------------------------------

def measure_e2e(workload: str, seed: int, repeats: int,
                seconds: float) -> list:
    """Timed children, one after another, after one discarded warm-up (it
    fills the bytecode and page caches): at least ``repeats`` of them, and
    more until ``seconds`` of host time have passed."""
    spawn("timed", workload, seed)
    runs = []
    t0 = time.monotonic()
    while len(runs) < repeats or time.monotonic() - t0 < seconds:
        runs.append(spawn("timed", workload, seed))
    return runs


def median_wall(children: list) -> float:
    return statistics.median(c["cell_wall_norm_s"] for c in children)


def measure_layers(workload: str, seed: int, verify: dict) -> dict:
    """The traced passes of one workload -> every per-layer metric."""
    twin = PLANE_OFF_TWIN.get(workload)
    base, profiled, off = [], [], []
    # The sides of each ratio alternate, so a slow phase of the host falls
    # on all of them.
    for _ in range(RATIO_REPEATS):
        base.append(spawn("timed", workload, seed))
        profiled.append(spawn("profiled", workload, seed))
        if twin is not None:
            off.append(spawn("timed", twin, seed))
    counted = spawn("counters", workload, seed)
    drills = spawn("drills", "-", seed)
    passes = base + profiled + off + [counted, drills]
    layers = {}
    if all(p["ok"] for p in passes) and verify["ok"]:
        for layer, row in profiled[0]["ledger"].items():
            for key, value in row.items():
                layers[f"{layer}.{key}"] = value
        layers["harness.cell_wall_s"] = statistics.median(
            c["cell_wall_s"] for c in base)
        layers["harness.trace_overhead_ratio"] = (
            median_wall(profiled) / median_wall(base))
        layers.update(counted["counters"])
        # The counters pass schedules its own sampler; the cell's event
        # count is the untraced one.
        layers["sim.events"] = base[0]["events"]
        for sim_name, layer_name in SIM_AS_LAYER.items():
            layers[layer_name] = base[0][sim_name] or 0.0
        overlap = verify["overlap"] or {"attempted": 0, "failed": 0}
        layers["core.verify_overlap_reads"] = overlap["attempted"]
        layers["core.verify_overlap_failed_reads"] = overlap["failed"]
        # A plane-off cell is its own plane-off twin: 1 by definition.
        layers["obs.overhead_ratio"] = (
            median_wall(base) / median_wall(off) if off else 1.0)
        layers["obs.teardown_errors"] = sum(
            1 for ln in base[0]["stderr_lines"]
            if ln.startswith("Exception ignored"))
        layers.update(drills["drills"])
    # Tracing is passive: the traced passes must simulate what the timed
    # pass simulated (the counters pass adds its own sampler events and
    # telemetry fields, so it is held to the simulated outputs only).
    same = (all(p["ok"] for p in passes)
            and all(p["sim_digest"] == base[0]["sim_digest"]
                    and p["events"] == base[0]["events"]
                    for p in base + profiled)
            and all(counted[m] == base[0][m] for m in SIM_OUTPUTS))
    return {"layers": layers, "passes": passes, "passive": same}


def run_workload_bench(name: str, args, decl: dict) -> dict:
    """Everything one workload contributes to a report."""
    doc = {"workload": name, "seed": args.seed,
           "cell": WORKLOADS[name]["cell"]}
    doc["verify"] = verify = spawn("verify", name, args.seed)
    if args.trace:
        traced = measure_layers(name, args.seed, verify)
        doc.update(traced)
        children = [p for p in traced["passes"] if p["mode"] != "drills"]
        consistent = traced["passive"]
        values, declared = traced["layers"], decl["per_layer"]
    else:
        children = doc["runs"] = measure_e2e(name, args.seed, args.repeats,
                                             args.seconds)
        doc["summary"] = summary = summarize(children)
        consistent = summary["deterministic"]
        values = {m: q["median"] for m, q in summary["host"].items()}
        values.update(summary["sim"])
        declared = decl["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in declared}
    # Ops attempted: reads the quiesced verify cell checked plus the
    # simulated user ops of every cell run.  A child that crashed, timed out
    # or broke a conservation identity fails all its ops (at least one).
    attempted = verify.get("attempted", 0) + sum(
        c.get("ops", 0) for c in children)
    failed = (verify["failed"] if verify["ok"]
              else max(verify.get("attempted", 0), 1))
    failed += sum(max(c.get("ops", 0), 1) for c in children if not c["ok"])
    complete = all(v["value"] is not None for v in metrics.values())
    doc["result"] = {
        "correct": bool(failed == 0 and consistent and complete),
        "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    return doc


# -- printing --------------------------------------------------------------------

def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_verify(v: dict) -> None:
    if not v["ok"]:
        print(f"   verify FAILED: {v.get('error')}")
        return
    print(f"   verify({v['system']}, rollback after the writes): "
          f"{v['attempted']} reads checked after {v['writes']} writes, "
          f"{v['failed']} differ")
    o = v["overlap"]
    if o is not None:
        print(f"   verify({o['system']}, {o['rollback']} rollback during the "
              f"writes): {o['attempted']} reads checked after {o['writes']} "
              f"writes, {o['failed']} differ"
              + ("  <- acknowledged writes lost by the program; counted in "
                 "core.verify_overlap_failed_reads, not in failed"
                 if o["failed"] else ""))


def print_workload(doc: dict, decl: dict) -> None:
    name = doc["workload"]
    profile, share = doc["cell"]
    print(f"\n== {name}  [{profile}, {share:g} of the horizon, "
          f"seed {doc['seed']}]")
    print_verify(doc["verify"])
    for r in doc.get("runs", []) + doc.get("passes", []):
        if not r["ok"]:
            print(f"   child {r['mode']} FAILED: "
                  f"{r.get('error') or r.get('broken_identities')}")
    if "layers" in doc:
        print(f"   {'layer':<10}{'self_s':>10}{'wall_share':>12}{'calls':>12}")
        for layer in LAYERS:
            row = [doc["layers"].get(f"{layer}.{k}", float("nan"))
                   for k in ("self_s", "wall_share", "calls")]
            print(f"   {layer:<10}{row[0]:>10.4f}{row[1]:>12.4f}{row[2]:>12}")
        units = {m["name"]: m["unit"] for m in decl["per_layer"]}
        print(f"   {'layer metric':<40}{'value':>16}  unit")
        for key, value in doc["layers"].items():
            if key.rsplit(".", 1)[1] not in ("self_s", "wall_share", "calls"):
                print(f"   {key:<40}{fmt(value):>16}  {units[key]}")
        print(f"   traced passes simulate the timed cell: {doc['passive']}")
        return
    summary = doc["summary"]
    units = {**HOST_METRICS, **SIM_OUTPUTS}
    print(f"   {'metric':<22}{'unit':<12}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'n':>4}")
    for m, q in summary["host"].items():
        print(f"   {m:<22}{units[m]:<12}{fmt(q['median']):>14}"
              f"{fmt(q['q1']):>14}{fmt(q['q3']):>14}{q['n']:>4}")
    for m, value in summary["sim"].items():
        print(f"   {m:<22}{units[m]:<12}{fmt(value):>14}"
              f"{'(simulated: identical on every repeat)':>42}")
    res = doc["result"]
    print(f"   failed_ops_share      ratio       "
          f"{res['failed'] / res['attempted']:>14.6g}"
          f"   ({res['failed']} of {res['attempted']} ops)")
    print(f"   kernel events {summary.get('events')}  sim_digest "
          f"{summary['sim_digest']}  repeats identical: "
          f"{summary['deterministic']}")


def print_list(decl: dict) -> None:
    print("workloads (cell run | issue's cell it is cut from):")
    for name, cell in WORKLOADS.items():
        print(f"  {name:<18}{cell['cell']} | {cell['issue_cell']}\n"
              f"  {'':<18}{cell['why']}")
    print("\nend-to-end metrics (unit, better, bound):")
    for m in decl["end_to_end"]:
        print(f"  {m['name']:<22}{m['unit']:<12}{m['better']:<8}{m['bound']}")
    print("\nsimulated outputs printed beside them where the cell defines "
          "them (per-layer name under --trace 1):")
    for sim_name, layer_name in SIM_AS_LAYER.items():
        print(f"  {sim_name:<22}{SIM_OUTPUTS[sim_name]:<12}-> {layer_name}")
    print("\nper-layer metrics (unit, better):")
    for m in decl["per_layer"]:
        print(f"  {m['name']:<40}{m['unit']:<12}{m['better']}")
    print("\nwhich layer metric moves which end-to-end metric, where:")
    for layer_metrics, effect in MOVES:
        print(f"  {layer_metrics}\n      -> {effect}")


# -- comparing two reports ---------------------------------------------------------

def judge(a: dict, b: dict, better: str, bound: float) -> tuple:
    """Verdict on one metric from report A to report B:
    (ratio B/A, 'better' | 'same' | 'worse' | 'unresolved')."""
    ratio = b["median"] / a["median"]
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    spread = max((q["q3"] - q["q1"]) / q["median"] for q in (a, b))
    if spread > bound:
        return ratio, "unresolved"
    if worse_by > bound:
        return ratio, "worse"
    return ratio, "better" if worse_by < -bound else "same"


def compare_reports(a: dict, b: dict, decl: dict, repeat: bool,
                    allow_model_change: bool = False) -> int:
    """Print, per workload, one row per gated host metric, every simulated
    output side by side and the verify counts; return how many rows fail.
    Host metrics fail when ``worse`` (for a repeat of one commit: when they
    ``disagree``).  Simulated outputs compare exactly, whatever a bound
    says: any difference is ``model-changed`` and fails unless allowed."""
    bad = 0
    for name, doc_a in a["workloads"].items():
        doc_b = b["workloads"].get(name)
        if doc_b is None or "summary" not in doc_a or "summary" not in doc_b:
            continue            # not in both, or a traced report
        sa, sb = doc_a["summary"], doc_b["summary"]
        print(f"\n{name:<18}{'metric':<20}{'A':>13}{'B':>13}"
              f"{'B/A':>8}{'bound':>7}  verdict")
        for m in decl["end_to_end"]:
            if m["name"] not in sa["host"]:
                continue        # simulated: compared exactly below
            qa, qb = sa["host"][m["name"]], sb["host"][m["name"]]
            ratio, verdict = judge(qa, qb, m["better"], m["bound"])
            if repeat:
                verdict = {"same": "agree", "unresolved": "unresolved"}.get(
                    verdict, "disagree")
            bad += verdict in ("worse", "disagree")
            print(f"{'':<18}{m['name']:<20}{fmt(qa['median']):>13}"
                  f"{fmt(qb['median']):>13}{ratio:>8.3f}{m['bound']:>7}"
                  f"  {verdict}")
        for m in SIM_OUTPUTS:
            va, vb = sa["sim"].get(m), sb["sim"].get(m)
            if va is None and vb is None:
                continue
            ratio = f"{vb / va:.4f}" if va and vb is not None else "-"
            print(f"{'':<18}{m:<20}{fmt(va):>13}{fmt(vb):>13}{ratio:>8}"
                  f"{'exact':>7}  {'identical' if va == vb else 'DIFFERENT'}")
        same_model = (sa["sim_digest"] == sb["sim_digest"]
                      and sa["sim"] == sb["sim"]
                      and sa.get("events") == sb.get("events"))
        verdict = "identical" if same_model else "model-changed"
        if not same_model and allow_model_change:
            verdict += " (allowed)"
        else:
            bad += not same_model
        print(f"{'':<18}{'kernel events':<20}{fmt(sa.get('events')):>13}"
              f"{fmt(sb.get('events')):>13}\n"
              f"{'':<18}{'sim_digest':<20}{sa['sim_digest'][:12]:>13}"
              f"{sb['sim_digest'][:12]:>13}{'':>15}  {verdict}")
        oa, ob = (d["verify"].get("overlap") for d in (doc_a, doc_b))
        if oa and ob:
            more = ob["failed"] > oa["failed"]
            bad += more
            print(f"{'':<18}{'overlap failed reads':<20}{oa['failed']:>13}"
                  f"{ob['failed']:>13}{'':>15}  "
                  f"{'MORE-FAILED' if more else 'no more than A'}")
        for label, doc in (("A", doc_a), ("B", doc_b)):
            res = doc["result"]
            if res["failed"] or not res["correct"]:
                bad += 1
                print(f"{'':<18}report {label}: {res['failed']} failed "
                      f"ops, correct={res['correct']}")
    return bad


# -- entry points ----------------------------------------------------------------

def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_report(names: list, args, decl: dict) -> dict:
    report = {"schema": "repro-e2e-bench/1", "commit": git_commit(),
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "repeats": args.repeats,
              "workloads": {}}
    for name in names:
        doc = run_workload_bench(name, args, decl)
        print_workload(doc, decl)
        report["workloads"][name] = doc
    return report


def main_compare(argv: list) -> int:
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("a", metavar="A.json")
    ap.add_argument("b", metavar="B.json")
    ap.add_argument("--allow-model-change", action="store_true",
                    help="B is meant to simulate something else than A: "
                         "report the differences, do not fail on them")
    args = ap.parse_args(argv)
    docs = []
    for path in (args.a, args.b):
        with open(path) as f:
            doc = json.load(f)
        # A --check-repeat file holds two reports; its second stands for
        # the commit.
        docs.append(doc.get("second", doc))
    if docs[0]["seed"] != docs[1]["seed"]:
        print(f"error: the reports ran seeds {docs[0]['seed']} and "
              f"{docs[1]['seed']}: different inputs, nothing to compare",
              file=sys.stderr)
        return 2
    bad = compare_reports(*docs, load_declaration(), False,
                          args.allow_model_change)
    return 1 if bad else 0


def main(argv: list) -> int:
    if argv[:1] == ["compare"]:
        return main_compare(argv[1:])

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                    help="cell to run (repeatable; default: all six)")
    ap.add_argument("--seed", type=int, default=1, help="RunSpec.seed")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed children per workload after one discarded "
                         "warm-up, at least (default 5)")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep timing children of a workload until this "
                         "much host time has passed (default 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer passes instead of end-to-end timing")
    ap.add_argument("--json", metavar="OUT", help="write the full report")
    ap.add_argument("--list", action="store_true",
                    help="print workloads and metrics, run nothing")
    ap.add_argument("--check-repeat", action="store_true",
                    help="run everything twice and compare the two sets")
    args = ap.parse_args(argv)
    if args.check_repeat and args.trace:
        ap.error("--check-repeat compares end-to-end runs (--trace 0)")
    decl = load_declaration()
    if args.list:
        print_list(decl)
        return 0
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found - the benchmark measures "
              "the program in this checkout", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)

    report = run_report(names, args, decl)
    status = 0
    if args.check_repeat:
        second = run_report(names, args, decl)
        report = {"first": report, "second": second}
        if compare_reports(report["first"], second, decl, True):
            status = 1
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return finish(report, names, status)


def finish(report: dict, names: list, status: int) -> int:
    """Exit status, and for a single workload the result line.  A result
    that says ``correct: false`` is still a result (status 0); a workload
    with a metric missing has none."""
    last = report.get("second", report)
    results = [last["workloads"][n]["result"] for n in names]
    for name, res in zip(names, results):
        if not res["correct"]:
            print(f"NOT CORRECT: {name} (see above)", file=sys.stderr)
    if len(results) > 1:
        return status or int(not all(r["correct"] for r in results))
    if any(v["value"] is None for v in results[0]["metrics"].values()):
        print("error: a declared metric has no value", file=sys.stderr)
        return 1
    print(json.dumps(results[0]))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
