"""The six experiment cells the benchmark runs, and the layer map.

A *cell* is one ``repro.bench.run_workload(RunSpec, profile)`` call: the
same public call, ``driver_batch=1`` closed loop (one writer, plus one
reader on workloads C and D) and rollback scheme as the paper-figure cell
the issue names (``issue_cell``), cut to about one host second so that
several fresh-process repeats fit in one ``--seconds`` budget.  The cut
shortens the horizon, not the profile: a smaller profile keeps the number
of periodic kernel events (detector and sampler ticks per horizon) while
dividing the user ops, which would shift the layer balance away from
``lsm``.  Only the scan cell uses a smaller profile, because the profile
is what sizes its preload.
"""

from __future__ import annotations

# Layers are the packages under src/repro/ a cell executes; ``types`` is
# the types.py module and ``harness`` is repro.bench plus everything that
# is not repro (stdlib, the benchmark's own child).
LAYERS = ("sim", "lsm", "device", "core", "cluster", "workload",
          "metrics", "obs", "types", "harness")

# name -> cell.  ``spec`` holds RunSpec keywords; ``cell`` is (profile name,
# fraction of the profile's horizon) and ``issue_cell`` the same for the
# paper-figure cell it is cut from (README: how to run that one once).
# ``planes`` switches on every observability plane run_workload accepts.
WORKLOADS = {
    "fill_kvaccel": {
        "why": "headline cell: fillrandom on KVACCEL, eager rollback; lsm "
               "bookkeeping dominates and core (detector, redirect, "
               "rollback) does its maximum work",
        "spec": {"system": "kvaccel", "workload": "A", "rollback": "eager"},
        "issue_cell": ("mini128", 1.0),
        "cell": ("mini128", 0.25),
    },
    "fill_rocksdb": {
        "why": "bypass for core and Dev-LSM: same lsm/device block path "
               "with slowdown, no detector/redirect/KV interface; a core "
               "change must show no change here",
        "spec": {"system": "rocksdb", "workload": "A", "slowdown": True},
        "issue_cell": ("mini128", 1.0),
        "cell": ("mini128", 0.33),
    },
    "mixed_rw_kvaccel": {
        "why": "8:2 write:read with lazy rollback: gets cross the metadata "
               "check, bloom/SSTable.probe and the KV-interface read path "
               "while redirected keys stay resident in Dev-LSM",
        "spec": {"system": "kvaccel", "workload": "C", "rollback": "lazy"},
        "issue_cell": ("mini128", 1.0),
        "cell": ("mini128", 0.15),
    },
    "scan_kvaccel": {
        "why": "seekrandom after a preload: k_way_merge, DualIterator and "
               "the device iterator, many kernel events per host second; "
               "the one cell where sim is a large share",
        "spec": {"system": "kvaccel", "workload": "D", "rollback": "eager"},
        "issue_cell": ("mini128", 1.0),
        "cell": ("mini1024", 0.5),
    },
    "cluster4_fill": {
        "why": "four KVACCEL shards in one DES world behind the hash "
               "router: cluster routing/fan-out/join and a 4x pending-event "
               "population; only a cluster or scheduler change shows here",
        "spec": {"system": "cluster", "workload": "A", "rollback": "eager",
                 "shards": 4, "router": "hash"},
        "issue_cell": ("mini256", 1.0),
        "cell": ("mini256", 0.15),
    },
    "observed_fill": {
        "why": "fill_kvaccel's cell with telemetry, lineage, journal and "
               "tracer on (in memory): the enabled cost of the obs planes, "
               "which do no work in the other five cells",
        "spec": {"system": "kvaccel", "workload": "A", "rollback": "eager"},
        "issue_cell": ("mini128", 1.0),
        "cell": ("mini128", 0.25),
        "planes": True,
    },
}

# The plane-off cell whose cell_wall_norm_s is the base of obs.overhead_ratio.
PLANE_OFF_TWIN = {"observed_fill": "fill_kvaccel"}

# Which end-to-end metric each layer metric should move, and where.  Kept
# beside the cells because BENCHMARK.json's per_layer entries may hold
# only name/unit/better; run.py --list prints it.
MOVES = [
    ("lsm.self_s lsm.version_score_us lsm.sstable_build_us_per_entry "
     "types.entry_size_ns",
     "cell_wall_norm_s, sim_ops_per_norm_s on fill_kvaccel and fill_rocksdb "
     "(both), observed_fill, cluster4_fill; little on scan_kvaccel"),
    ("lsm.bloom_probe_ns lsm.kway_merge_ns_per_entry",
     "cell_wall_norm_s on mixed_rw_kvaccel and scan_kvaccel only"),
    ("core.*",
     "cell_wall_norm_s on fill_kvaccel, mixed_rw_kvaccel, observed_fill; "
     "predicted no change on fill_rocksdb (core.wall_share is 0 there)"),
    ("sim.wall_us_per_event sim.timeout_chain_events_per_s "
     "sim.resource_handoff_events_per_s",
     "cell_wall_norm_s on scan_kvaccel and cluster4_fill; within noise on the "
     "fill cells, where the kernel is under 15% of the wall"),
    ("cluster.*", "cell_wall_norm_s on cluster4_fill only"),
    ("device.ledger_record_ns device.ftl_write_batch_us_per_page",
     "cell_wall_norm_s on every cell that writes (all but the scan phase)"),
    ("obs.*",
     "cell_wall_norm_s on observed_fill only; obs.wall_share is 0 on the "
     "other five"),
    ("<layer>.self_s (any)",
     "an equal drop in cell_wall_norm_s on that workload: one thread, nothing "
     "overlaps; sim_kops and sim_digest stay identical unless "
     "the change says it changes the model"),
    ("lsm.write_amp device.link_amp lsm.stall_s workload.write_kops",
     "trade against each other on model changes - report all four"),
    ("core.verify_overlap_failed_reads",
     "no host time: acknowledged writes that read back stale or missing when "
     "a rollback overlaps put_batch (verify.py); a change to core may lower "
     "it, and compare fails when it rises"),
]
