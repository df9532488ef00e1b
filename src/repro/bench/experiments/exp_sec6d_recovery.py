"""Section VI-D — recovery after losing the metadata hash table.

Paper: the Metadata Manager lives in volatile memory; after a crash, all
KV pairs in the Dev-LSM are rolled back into Main-LSM.  Restoring 10,000
pairs took 1.1 s, i.e. recovery overhead is minimal.
"""

from __future__ import annotations

from ...core import KvaccelDb
from ...device import CpuModel, HybridSsd
from ...sim import Environment
from ...types import encode_key
from ...workload import value_for
from ..report import fmt, shape_check, table
from .common import resolve_profile

PAPER = {"pairs": 10_000, "seconds": 1.1}


def run(profile=None, quick: bool = False, pairs: int = 10_000,
        options=None) -> dict:  # options unused: single-env scenario
    profile = resolve_profile(profile, quick)
    if quick:
        pairs = min(pairs, 2_000)
    env = Environment()
    import copy
    cpu = CpuModel(env, cores=profile.host_cores, name="host")
    ssd = HybridSsd(env, cpu, copy.deepcopy(profile.ssd))
    db = KvaccelDb(env, copy.deepcopy(profile.options), ssd, cpu,
                   rollback="disabled",
                   detector_config=copy.deepcopy(profile.detector))

    # Force every pair through the key-value interface (as if written
    # during one long stall), then crash the metadata table and recover.
    # The detector thread is stopped first so it cannot overwrite the
    # forced verdict mid-load.
    db.detector.stop()

    def load():
        db.detector.stall_condition = True
        batch = []
        for i in range(pairs):
            batch.append((encode_key(i), value_for(encode_key(i),
                                                   profile.value_size)))
            if len(batch) == profile.batch_size:
                yield from db.put_batch(batch)
                batch = []
        if batch:
            yield from db.put_batch(batch)
        db.detector.stall_condition = False

    env.run(until=env.process(load()))
    assert ssd.kv.entry_count >= 1

    report = env.run(until=env.process(db.recover()))
    env.run(until=env.process(db.wait_for_quiesce()))

    # Post-recovery integrity: the device buffer is empty, data readable.
    def verify():
        for k in (0, pairs // 2, pairs - 1):
            v = yield from db.get(encode_key(k))
            assert v is not None, k
    env.run(until=env.process(verify()))

    check = shape_check("Sec VI-D: recovery is complete and fast")
    check.expect("all pairs recovered",
                 report.entries == pairs,
                 f"{report.entries}/{pairs}")
    check.expect("Dev-LSM empty after recovery", ssd.kv.is_empty)
    check.expect("metadata table empty (trivially consistent)",
                 len(db.metadata) == 0)
    # Paper: 10k pairs in 1.1 s on real hardware.  Same order of magnitude:
    per_pair_paper = PAPER["seconds"] / PAPER["pairs"]
    per_pair = report.elapsed / max(1, report.entries)
    check.expect(
        "per-pair recovery cost within 20x of the paper's 110 us",
        per_pair <= per_pair_paper * 20,
        f"{per_pair*1e6:.0f} us/pair vs paper {per_pair_paper*1e6:.0f} us/pair")

    print(table(
        ["pairs", "recovered", "sim seconds", "paper seconds (10k pairs)"],
        [[pairs, report.entries, fmt(report.elapsed, 3),
          PAPER["seconds"]]],
        title="Section VI-D — metadata-loss recovery"))
    print(check.render())
    db.close()
    return {"report": report, "paper": PAPER, "check": check}


if __name__ == "__main__":
    run()["check"].assert_all()
