"""Correctness cells: the system a workload runs, checked against the
differential oracle.

A cell is one short run of a system (``kvaccel``, ``rocksdb``, ``cluster``
of four) at ``mini1024``, built with the public ``build_system`` and written
through ``put_batch`` in groups of ``profile.batch_size`` (what a measured
cell's writer sends), every group shadowed by a
``repro.faults.oracle.DifferentialOracle``.  Keys come from a small space
and every write carries a fresh value, so a stale read is detectable.
Writing continues until the mechanism the system exists for has happened;
then every tracked key is read back with ``get`` and ``SCANS`` scans are
compared with the oracle's sorted view.  kvaccel and cluster then drain the
Dev-LSM with ``final_rollback()`` and everything is read back again.

Two cells per workload:

* **quiesced** - rollback ``disabled`` while writing (the paper's
  workload-A configuration: roll back after the workload).  Stops once
  ``REDIRECTED`` writes went to the Dev-LSM (rocksdb: a stall or slowdown
  and a compaction), so the first read-back crosses the dual-interface read
  path with keys resident in the device.  No operation fails here; this
  cell feeds the result line's ``attempted`` / ``failed``.
* **overlap** (kvaccel and cluster) - the workload's own rollback scheme
  (``eager`` or ``lazy``), which lets a rollback run while ``put_batch`` is
  in flight.  Stops once ``REDIRECTED`` writes were redirected and a
  rollback has completed during the writes.  At the parent commit this
  loses and reorders acknowledged writes (seed 1, eager: 33 of 3,112 reads
  differ), so its counts are not folded into ``failed`` - a benchmark's
  workloads may not carry a failing operation - but reported on every run
  as ``core.verify_overlap_reads`` / ``core.verify_overlap_failed_reads``,
  and ``run.py compare`` fails when the second rises.

Reads are counted as issued; a read that differs from the oracle fails.
"""

from __future__ import annotations

import random

from cells import WORKLOADS

KEY_SPACE = 4096
MAX_WRITES = 60_000
REDIRECTED = 256
SCANS = 32
SCAN_LEN = 16


def oracle_cell(spec_kw: dict, seed: int, overlap: bool) -> dict:
    from repro.bench import RunSpec, build_system
    from repro.bench.profiles import get_profile
    from repro.faults.oracle import DifferentialOracle
    from repro.sim import Environment
    from repro.types import ValueRef, encode_key

    system = spec_kw["system"]
    dual = system != "rocksdb"
    if dual and not overlap:
        spec_kw = dict(spec_kw, rollback="disabled")
    spec = RunSpec(seed=seed, **spec_kw)
    profile = get_profile("mini1024")
    env = Environment()
    db, _ssd, _cpu = build_system(env, profile, spec)
    oracle = DifferentialOracle(seed=seed)
    rng = random.Random(seed)
    report = {"system": system, "rollback": spec_kw.get("rollback"),
              "writes": 0, "attempted": 0, "failed": 0,
              "mechanism_seen": False}

    def shards():
        snap = db.snapshot() if dual else db.property_snapshot()
        return snap["per_shard"] if system == "cluster" else [snap]

    def written_enough():
        if not dual:
            (s,) = shards()
            return (s["stall_events"] + s["slowdown_events"] >= 1
                    and s["compactions"] >= 1)
        if sum(s["redirected_writes"] for s in shards()) < REDIRECTED:
            return False
        return not overlap or sum(s["rollbacks"] for s in shards()) >= 1

    def drained():
        return (sum(s["rollbacks"] for s in shards()) >= 1
                and sum(s["devlsm_entries"] for s in shards()) == 0)

    def read_back():
        for key in oracle.tracked_keys():
            got = yield from db.get(key)
            report["attempted"] += 1
            report["failed"] += got != oracle.committed[key]
        live = sorted(oracle.committed.items())
        for _ in range(SCANS):
            start = encode_key(rng.randrange(KEY_SPACE), profile.key_size)
            rows = yield from db.scan(start, SCAN_LEN)
            want = [kv for kv in live if kv[0] >= start][:SCAN_LEN]
            report["attempted"] += 1
            report["failed"] += rows != want

    def drive():
        seen = False
        while report["writes"] < MAX_WRITES and not seen:
            batch = {}
            for i in range(profile.batch_size):
                key = encode_key(rng.randrange(KEY_SPACE), profile.key_size)
                batch[key] = ValueRef(seed=report["writes"] + i,
                                      size=profile.value_size)
            pairs = list(batch.items())
            oracle.begin_batch(pairs)
            yield from db.put_batch(pairs)
            oracle.ack()
            report["writes"] += len(pairs)
            seen = written_enough()
        yield from read_back()
        if dual:
            yield from db.final_rollback()
            seen = seen and drained()
            yield from read_back()
        report["mechanism_seen"] = seen

    env.run(until=env.process(drive(), name="verify"))
    db.close()
    # A cell that never reached its mechanism verified the wrong thing.
    if not report["mechanism_seen"]:
        report["failed"] = report["attempted"]
    return report


def verify_workload(workload: str, seed: int) -> dict:
    """The quiesced cell's report, with the overlap cell's under
    ``overlap`` (``None`` for rocksdb, which has no rollback)."""
    spec_kw = dict(WORKLOADS[workload]["spec"], workload="A")
    report = oracle_cell(spec_kw, seed, overlap=False)
    report["overlap"] = (oracle_cell(spec_kw, seed, overlap=True)
                         if spec_kw["system"] != "rocksdb" else None)
    return report
