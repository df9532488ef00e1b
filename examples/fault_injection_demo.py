#!/usr/bin/env python3
"""Scripted tour of the fault-injection & crash-consistency harness.

1. Trace a mixed stall/rollback workload and list every fault point it
   reaches (the sites the crash sweep will enumerate).
2. Crash the host KVACCEL module at one site, recover, and let the
   differential oracle check the durability / no-phantom invariants.
3. Demonstrate that the harness has teeth: swap in a deliberately broken
   recovery (one that resets the Dev-LSM without draining it) and watch
   the oracle flag the lost acknowledged writes.
4. Inject a silent device-command drop into a live system and catch the
   lost write with an oracle the workload maintains itself.

Run:  PYTHONPATH=src python examples/fault_injection_demo.py
"""

from repro.faults import (
    DROP,
    DifferentialOracle,
    FaultAction,
    KvaccelFaultHarness,
    NthOccurrencePlan,
    broken_recovery_skip_drain,
)

SEED = 0xC0FFEE

# -- 1. trace the workload ---------------------------------------------------
harness = KvaccelFaultHarness(seed=SEED)
trace = harness.trace()
sites = []
for hit in trace:
    if hit.occurrence == 1:
        sites.append(hit.site)
print(f"workload reaches {len(sites)} distinct fault points "
      f"({len(trace)} total hits):")
for site in sites:
    print(f"  {site}")

# -- 2. crash at one site, recover, verify -----------------------------------
site = "kv.put_batch.complete"
report = harness.crash_at(site, occurrence=10)
print(f"\ncrash at {report.site} (occurrence {report.occurrence}) "
      f"at t={report.sim_time:.4f}s")
print(f"  recovered entries: {report.recovery.entries}")
print(f"  oracle violations: {len(report.violations)}  "
      f"-> {'OK' if report.ok else 'FAILED'}")
assert report.ok

# -- 3. a broken recovery is caught ------------------------------------------
broken = KvaccelFaultHarness(seed=SEED, recovery=broken_recovery_skip_drain)
report = broken.crash_at(site, occurrence=10)
print(f"\nsame crash, recovery that skips the Dev-LSM drain:")
for violation in report.violations[:3]:
    print(f"  {violation.describe()}")
print(f"  ... {len(report.violations)} violations total")
assert not report.ok

# -- 4. a silent command drop on a live system -------------------------------
from repro.sim import Environment            # noqa: E402
from repro.types import encode_key           # noqa: E402
import sys                                   # noqa: E402
from pathlib import Path                     # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import make_faulty_system       # noqa: E402

env = Environment()
db, ssd, cpu, registry = make_faulty_system(env, seed=SEED)
db.detector.stop()
db.rollback_manager.stop()
oracle = DifferentialOracle(seed=SEED)
key = encode_key(7)


def scenario():
    oracle.begin_put(key, b"v1" * 30)
    yield from db.put(key, b"v1" * 30)
    oracle.ack()
    db.detector.stall_condition = True       # route the next put to the device
    registry.arm("kv.put_batch.submit", NthOccurrencePlan(1),
                 FaultAction(kind=DROP))
    oracle.begin_put(key, b"v2" * 30)
    yield from db.put(key, b"v2" * 30)       # acked — but the device lost it
    oracle.ack()
    return (yield from db.get(key))


got = env.run(until=env.process(scenario()))
print(f"\ndropped device command: lost_commands={ssd.kv.lost_commands}")
try:
    oracle.check_read(key, got)
except AssertionError as exc:
    print(f"oracle caught it: {exc}")
db.close()
print("\ndemo complete")
