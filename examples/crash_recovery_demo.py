#!/usr/bin/env python3
"""Crash consistency walkthrough (paper Sections V-G and VI-D).

1. Writes land in the Dev-LSM during a (forced) stall window — they are
   durable in NAND the moment the KV PUT completes, with the volatile
   metadata hash table as the only index of what lives where.
2. A crash wipes the metadata table.
3. Recovery range-scans the whole key-value interface, merges everything
   back into Main-LSM (sequence numbers arbitrate against newer host-side
   versions), and resets the device buffer.
4. Every committed write is still readable; no stale value resurfaces.

The demo also round-trips an SSTable through the real binary codec to show
the on-media format is concrete, not hand-waved.

Run:  python examples/crash_recovery_demo.py
"""

from repro import CpuModel, Environment, HybridSsd, KvaccelDb, LsmOptions
from repro.device import HybridSsdConfig, MiB, NandGeometry
from repro.lsm import SSTable
from repro.types import encode_key, make_entry

env = Environment()
cpu = CpuModel(env, cores=8)
ssd = HybridSsd(env, cpu, HybridSsdConfig(
    geometry=NandGeometry(blocks_per_way=64)))
db = KvaccelDb(env, LsmOptions(write_buffer_size=1 * MiB), ssd, cpu,
               rollback="disabled")
db.detector.stop()  # we drive the stall signal by hand in this demo


def scenario():
    # Phase 1: normal traffic into Main-LSM.
    for i in range(200):
        yield from db.put(encode_key(i), b"main-v1-%d" % i)

    # Phase 2: a stall window — the controller redirects to the Dev-LSM.
    db.detector.stall_condition = True
    for i in range(100, 300):
        yield from db.put(encode_key(i), b"dev-v2-%d" % i)
    db.detector.stall_condition = False

    # Phase 3: some keys get re-written via Main-LSM afterwards (step 3-1
    # of the write path: their metadata records are deleted).
    for i in range(150, 180):
        yield from db.put(encode_key(i), b"main-v3-%d" % i)

    print(f"before crash: {ssd.kv.entry_count} entries buffered in the "
          f"Dev-LSM, {len(db.metadata)} keys tracked by the metadata table")

    # Phase 4: crash -> the volatile metadata table is gone.
    report = yield from db.recover()
    print(f"recovery: scanned + merged {report.entries} entries "
          f"in {report.elapsed*1000:.1f} simulated ms "
          f"({report.bytes} bytes)")

    yield from db.wait_for_quiesce()

    # Phase 5: verify — every key returns its newest committed value.
    checks = {
        50: b"main-v1-50",     # never redirected
        120: b"dev-v2-120",    # recovered from the device
        160: b"main-v3-160",   # host version must beat the stale dev copy
        299: b"dev-v2-299",
    }
    for k, expected in checks.items():
        got = yield from db.get(encode_key(k))
        status = "OK" if got == expected else f"MISMATCH (got {got!r})"
        print(f"  key {k:4d}: expect {expected!r:24} -> {status}")
        assert got == expected


env.run(until=env.process(scenario()))

# ---------------------------------------------------------------- codec
entries = [make_entry(encode_key(i), i + 1, b"payload-%d" % i)
           for i in range(64)]
sst = SSTable(99, entries, block_size=512)
blob = sst.to_bytes()
restored = SSTable.from_bytes(99, blob, block_size=512)
assert [e[0] for e in restored.entries] == [e[0] for e in sst.entries]
print(f"\nSST codec round-trip: {sst.num_entries} entries -> {len(blob)} "
      f"bytes on media -> restored {restored.num_entries} entries, "
      f"{restored.num_blocks} blocks, bloom fp~{restored.bloom.false_positive_rate():.3%}")
print("crash-recovery demo complete.")
db.close()
