"""Table VI — time overheads of KVACCEL's software modules.

Paper (average elapsed time):

    Detector check   1.37 us     (every 0.1 s)
    Key insert       0.45 us
    Key check        0.20 us
    Key delete       0.28 us

Two measurements are reported here:

1. the *model constants* the simulation charges (these are the paper's
   numbers, wired into the detector and metadata modules' cost
   constants), verified to be exactly what the host-CPU ledger
   accumulates; and
2. a *real microbenchmark* of our Python implementations of the same
   operations (wall-clock perf_counter), to show the operations genuinely
   are sub-microsecond-to-few-microsecond hash/stat work.
"""

from __future__ import annotations

import time

from ...core import DetectorConfig, MetadataManager, WriteStallDetector
from ...core.metadata import CHECK_COST, DELETE_COST, INSERT_COST
from ...device import CpuModel
from ...lsm import LsmOptions
from ...sim import Environment
from ...types import encode_key
from ..report import fmt, shape_check, table
from .common import resolve_profile

PAPER = {
    "detector_us": 1.37,
    "insert_us": 0.45,
    "check_us": 0.20,
    "delete_us": 0.28,
}


def _wall_us(fn, n: int = 50_000) -> float:
    t0 = time.perf_counter()
    fn(n)
    return (time.perf_counter() - t0) / n * 1e6


def run(profile=None, quick: bool = False,
        options=None) -> dict:  # options unused: single-env microbench
    profile = resolve_profile(profile, quick)
    ops = 10_000 if quick else 50_000

    # --- 1. model constants, verified through the CPU ledger ----------
    env = Environment()
    cpu = CpuModel(env, cores=8)
    md = MetadataManager(cpu)
    keys = [encode_key(i) for i in range(ops)]
    md.insert_all(keys)
    for k in keys:
        md.contains(k)
    md.settle(keys)             # the write path's check, then delete
    calls = md.inserts + md.checks + md.deletes
    charged_us = cpu.busy_by_tag["metadata"] / calls * 1e6
    expected_us = (md.inserts * PAPER["insert_us"]
                   + md.checks * PAPER["check_us"]
                   + md.deletes * PAPER["delete_us"]) / calls

    # Detector: drive a real detector over an idle DB for N periods.
    from ...device import Ftl, NandArray, NandGeometry, PcieLink, BlockDevice
    from ...lsm import DbImpl
    env2 = Environment()
    cpu2 = CpuModel(env2, cores=8)
    geo = NandGeometry(channels=1, ways=1, blocks_per_way=64,
                       pages_per_block=16, page_size=4096)
    dev = BlockDevice(env2, Ftl(geo), NandArray(env2, geo), PcieLink(env2))
    db = DbImpl(env2, LsmOptions(write_buffer_size=1 << 20), dev, cpu2)
    det = WriteStallDetector(env2, db, DetectorConfig(period=0.01))
    env2.run(until=1.0)
    det_us = cpu2.busy_by_tag["detector"] / max(1, det.checks) * 1e6
    det.stop()
    db.close()

    # --- 2. wall-clock microbenchmark of the actual Python ops ----------
    store: set = set()

    def bench_insert(n):
        for i in range(n):
            store.add(keys[i])

    def bench_check(n):
        for i in range(n):
            keys[i] in store  # noqa: B015

    def bench_delete(n):
        for i in range(n):
            store.discard(keys[i])

    wall = {
        "insert_us": _wall_us(bench_insert, ops),
        "check_us": _wall_us(bench_check, ops),
        "delete_us": _wall_us(bench_delete, ops),
    }

    rows = [
        ["Detector", fmt(det_us), fmt(PAPER["detector_us"]), "-"],
        ["Key insert", fmt(INSERT_COST * 1e6),
         fmt(PAPER["insert_us"]), fmt(wall["insert_us"], 3)],
        ["Key check", fmt(CHECK_COST * 1e6),
         fmt(PAPER["check_us"]), fmt(wall["check_us"], 3)],
        ["Key delete", fmt(DELETE_COST * 1e6),
         fmt(PAPER["delete_us"]), fmt(wall["delete_us"], 3)],
    ]

    check = shape_check("Table VI: module overheads are microsecond-scale")
    check.expect("ledger charge matches the configured per-op costs",
                 abs(charged_us - expected_us) / expected_us < 0.01,
                 f"{charged_us:.3f} vs {expected_us:.3f} us")
    check.expect("detector charge matches Table VI's 1.37 us",
                 abs(det_us - PAPER["detector_us"]) < 0.01,
                 f"{det_us:.3f} us")
    check.expect("real Python hash ops are < 5 us each",
                 all(v < 5.0 for v in wall.values()),
                 str({k: round(v, 3) for k, v in wall.items()}))
    check.expect("check is the cheapest metadata op (paper ordering)",
                 wall["check_us"] <= wall["insert_us"] * 1.5)

    print(table(["operation", "model (us)", "paper (us)", "python wall (us)"],
                rows, title="Table VI — software module overheads"))
    print(check.render())
    return {"wall": wall, "detector_us": det_us, "paper": PAPER,
            "check": check}


if __name__ == "__main__":
    run()["check"].assert_all()
