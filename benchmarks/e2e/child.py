"""One measurement in one fresh process.  Spawned by run.py, never imported
by the program under test.

    python child.py MODE WORKLOAD SEED PROFILE HORIZON_SHARE SPAWN_T

MODE is ``timed`` (all tracing off: the end-to-end numbers), ``profiled``
(cProfile around the cell -> layer ledger), ``counters`` (telemetry +
kernel profiler on -> the program's own public counters), ``verify``
(differential-oracle cells) or ``drills`` (isolated layer calls).  PROFILE
and HORIZON_SHARE size the cell (cells.py).  SPAWN_T is the parent's
``time.monotonic()`` just before it started this process (CLOCK_MONOTONIC
is system-wide on Linux), so set-up time includes the interpreter start.
The result is one JSON object on the last stdout line.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time


# The host this runs on changes speed by up to 2x for ten or twenty seconds
# at a time (a shared 2-core VM: neighbours, frequency).  A cell lasts about
# a second, so such a phase shifts a whole run's median.  The probe below is
# a fixed piece of interpreter work timed right before and right after the
# cell.  PROBE_NOMINAL_S defines the reference speed: the cell's wall time
# divided by (probe time / PROBE_NOMINAL_S) is the time the same work would
# have taken on a host that runs the probe in 21.5 ms.  Only the cell's wall
# time is scaled (interpreter work, like the probe); set-up time is import
# and file I/O and is reported as measured.
PROBE_NOMINAL_S = 0.0215
PROBE_SAMPLES = 5


def host_speed_probe() -> float:
    """Median seconds of a fixed pure-Python loop (dict, tuple, int work)."""
    samples = []
    for _ in range(PROBE_SAMPLES):
        table, acc = {}, 0
        t0 = time.perf_counter()
        for i in range(100_000):
            k = (i * 2654435761) & 0xfff
            table[k] = (i, acc)
            acc += len(table) + k % 7
            if k & 1:
                acc -= table[k][0]
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[PROBE_SAMPLES // 2]


def build_cell(workload: str, seed: int, profile_name: str,
               horizon_share: float):
    """(RunSpec, profile, run_workload keyword arguments) for a workload."""
    from repro.bench import RunSpec
    from repro.bench.profiles import get_profile
    from repro.obs import Journal, Tracer

    from cells import WORKLOADS

    cell = WORKLOADS[workload]
    profile = get_profile(profile_name)
    spec = RunSpec(seed=seed, duration=profile.duration * horizon_share,
                   **cell["spec"])
    planes = {}
    if cell.get("planes"):
        planes = dict(telemetry=True, lineage=True, tracer=Tracer(),
                      journal=Journal(period=profile.sample_period))
    return spec, profile, planes


def sim_outputs(result) -> dict:
    """Simulated-time results of a cell.  ``None`` marks a metric the cell
    does not define (no writes, no reads): it is omitted, never zero."""
    wl, rl = result.write_latency, result.read_latency
    w_kops = result.write_throughput_ops / 1e3
    r_kops = result.read_throughput_ops / 1e3
    w_p99 = wl["p99"] if wl else None
    r_p99 = rl["p99"] if rl else None
    writes = result.write_ops > 0
    return {
        "sim_kops": w_kops + r_kops,
        "sim_write_kops": w_kops if writes else None,
        "sim_read_kops": r_kops if result.read_ops > 0 else None,
        "sim_write_p99_us": w_p99,
        "sim_read_p99_us": r_p99,
        "sim_stall_s": result.total_stall_time + result.total_delayed_time,
        "sim_efficiency": result.efficiency if writes else None,
        "sim_link_amp": (sum(result.pcie_series) / result.write_bytes
                         if writes else None),
    }


def sim_digest(result) -> str:
    doc = json.dumps(result.to_json(), sort_keys=True,
                     separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def broken_identities(spec, result) -> list:
    """Conservation identities every finished cell must satisfy."""
    snap = result.extra["snapshot"]
    shards = snap["per_shard"] if spec.system == "cluster" else [snap]
    # Workload D preloads through the same write path before the measured
    # phase, so its snapshot counts writes the driver does not.
    exact = spec.workload != "D"
    bad = []

    def check(name, ok):
        if not ok:
            bad.append(name)

    seq = sum(s["seq"] for s in shards)
    check("seq>=write_ops", seq >= result.write_ops)
    if spec.system in ("kvaccel", "cluster"):
        routed = sum(s["normal_writes"] + s["redirected_writes"]
                     for s in shards)
        check("normal+redirected==write_ops",
              routed == result.write_ops if exact
              else routed >= result.write_ops)
        check("redirected==sum(shards)",
              result.extra["redirected_writes"]
              == sum(s["redirected_writes"] for s in shards))
        check("rollbacks==sum(shards)",
              result.extra["rollbacks"] == sum(s["rollbacks"] for s in shards))
    if spec.system == "cluster":
        rows = result.extra["cluster"]["per_shard"]
        check("shard write_ops sum", sum(r["write_ops"] for r in rows)
              == result.write_ops)
        check("shard read_ops sum", sum(r["read_ops"] for r in rows)
              == result.read_ops)
    return bad


def run_cell(mode: str, workload: str, seed: int, profile_name: str,
             horizon_share: float, spawn_t: float) -> dict:
    from repro.bench import run_workload

    spec, profile, planes = build_cell(workload, seed, profile_name,
                                       horizon_share)
    if mode == "counters":
        planes.update(telemetry=True, kernel_profile=True)
    profiler = None
    if mode == "profiled":
        import cProfile
        profiler = cProfile.Profile()
    setup = time.monotonic() - spawn_t
    probe = host_speed_probe()
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    result = run_workload(spec, profile, **planes)
    if profiler is not None:
        profiler.disable()
    wall = time.perf_counter() - t0
    host_slowdown = (probe + host_speed_probe()) / 2 / PROBE_NOMINAL_S
    wall_norm = wall / host_slowdown

    ops = result.write_ops + result.read_ops
    out = {
        "setup_s": setup,
        "cell_wall_s": wall,
        "host_slowdown": host_slowdown,
        "cell_wall_norm_s": wall_norm,
        "sim_ops_per_norm_s": ops / wall_norm,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": ops,
        "events": result.extra["events_processed"],
        "sim_digest": sim_digest(result),
        "broken_identities": broken_identities(spec, result),
    }
    out.update(sim_outputs(result))
    if profiler is not None:
        from ledger import layer_ledger
        out["ledger"] = layer_ledger(profiler)
    if mode == "counters":
        from counters import layer_counters
        out["counters"] = layer_counters(spec, result)
    return out


def main(argv: list) -> int:
    mode, workload, seed, profile_name, horizon_share, spawn_t = argv
    seed = int(seed)
    if mode == "verify":
        from verify import verify_workload
        out = verify_workload(workload, seed)
    elif mode == "drills":
        from drills import run_drills
        out = {"drills": run_drills(seed)}
    else:
        out = run_cell(mode, workload, seed, profile_name,
                       float(horizon_share), float(spawn_t))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
