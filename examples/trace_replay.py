#!/usr/bin/env python3
"""Trace-driven A/B comparison: record once, replay everywhere.

Production tuning rarely trusts synthetic generators.  This example
records an operation trace from a live (simulated) application session,
saves it to disk, and replays the identical stream against RocksDB-sim and
KVACCEL on identical hardware — the fairest possible A/B.

Run:  python examples/trace_replay.py
"""

import random
import tempfile
from pathlib import Path

from repro.bench.profiles import mini_profile
from repro.bench.report import table
from repro.bench.runner import RunSpec, build_system
from repro.sim import Environment
from repro.types import encode_key
from repro.workload import Trace, TraceRecorder, TraceReplayDriver, value_for

profile = mini_profile(256)

# ---------------------------------------------------------- record phase
env = Environment()
db, ssd, cpu = build_system(env, profile,
                            RunSpec("rocksdb", "A", 1, slowdown=True))
recorder = TraceRecorder(db)


def application_session():
    """A bursty session: hot-key updates, point lookups, page scans."""
    rng = random.Random(2026)
    for i in range(4000):
        r = rng.random()
        if r < 0.7:
            k = encode_key(rng.randrange(20_000))
            yield from recorder.put(k, value_for(k, profile.value_size))
        elif r < 0.9:
            yield from recorder.get(encode_key(rng.randrange(20_000)))
        else:
            yield from recorder.scan(encode_key(rng.randrange(20_000)), 16)


env.run(until=env.process(application_session()))
db.close()

trace_path = Path(tempfile.gettempdir()) / "kvaccel_session.trace"
recorder.trace.save(trace_path)
print(f"recorded {len(recorder.trace)} ops "
      f"({recorder.trace.op_counts()}) -> {trace_path}")

# ---------------------------------------------------------- replay phase
trace = Trace.load(trace_path)
rows = []
for spec in [RunSpec("rocksdb", "A", 1, slowdown=True),
             RunSpec("kvaccel", "A", 1, rollback="eager")]:
    env = Environment()
    db, ssd, cpu = build_system(env, profile, spec)
    driver = TraceReplayDriver(env, db, trace)
    env.run(until=driver.start())
    elapsed = env.now
    rows.append([
        spec.display,
        f"{elapsed*1000:.0f} ms",
        f"{driver.write_ops / elapsed / 1000:.1f}",
        f"{driver.read_ops / elapsed / 1000:.1f}",
        db.write_controller.stall_events,
    ])
    db.close()

print()
print(table(["system", "replay time", "write Kops/s", "read Kops/s",
             "stalls"],
            rows, title=f"Identical {len(trace)}-op trace on both systems"))
print("\nSame byte-identical request stream, same simulated hardware — the "
      "replay-time delta is purely engine behaviour.  On this light,\n"
      "scan-mixed session neither engine stalls, so KVACCEL's redirection "
      "buys nothing while its dual-interface scans cost a little more\n"
      "(Table V's effect) — exactly the kind of conclusion trace replay "
      "exists to surface before you deploy.")
