"""`KvaccelController.delete` keeps the books `put_batch` keeps.

Every acked write — put or delete, redirected or normal — bumps its
counter, publishes the matching `ctl.*` telemetry channel (which
`obs.rules.delayed_rate_floor` counts as admitted traffic) and records one
write-latency sample ("so P99 covers the whole system").  A delete used to
do only the first of the three.
"""

from repro.faults.kit import scripted_stack
from repro.metrics import LatencyHistogram
from repro.obs import TelemetryHub
from repro.sim import Environment
from repro.types import encode_key


def test_delete_publishes_counts_and_latency_like_put():
    env = Environment()
    hub = TelemetryHub(env, period=1.0).install(env)
    db = scripted_stack(env)
    hist = LatencyHistogram()
    db.main.stats.write_latencies = hist
    value = b"v" * 64

    def workload():
        for i in range(20):
            yield from db.put(encode_key(i), value)
        db.detector.stall_condition = True        # stall window on
        for i in range(20, 30):
            yield from db.put(encode_key(i), value)
        for i in range(10):
            yield from db.delete(encode_key(i))
        db.detector.stall_condition = False       # window off
        for i in range(10, 15):
            yield from db.delete(encode_key(i))

    env.run(until=env.process(workload()))
    ctl = db.controller
    assert (ctl.redirected_writes, ctl.normal_writes) == (20, 25)
    assert hub.channels["ctl.redirected"].total == ctl.redirected_writes
    assert hub.channels["ctl.normal"].total == ctl.normal_writes
    assert hist.total_count == ctl.redirected_writes + ctl.normal_writes
