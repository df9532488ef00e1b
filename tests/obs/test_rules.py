"""Unit tests for the health/SLO rule engine."""

import pytest

from repro.obs.rules import (
    HealthMonitor,
    HealthRule,
    default_rules,
)
from repro.obs.telemetry import TelemetryHub
from repro.sim import Environment

MiB = 1 << 20


def test_rule_validation():
    with pytest.raises(ValueError, match="window"):
        HealthRule("x", "warning", 0, lambda w: False)
    with pytest.raises(ValueError, match="severity"):
        HealthRule("x", "fatal", 1, lambda w: False)


def test_edge_triggering_detached():
    rule = HealthRule("hot", "warning", 1, lambda w: w[-1].get("x", 0) > 5)
    mon = HealthMonitor(None, [rule])
    for t, x in enumerate([0, 10, 10, 0, 10, 0]):
        mon.observe(float(t), {"x": x})
    phases = [(e.t, e.phase) for e in mon.events]
    # Sustained firing emits one enter; each recovery emits one clear.
    assert phases == [(1.0, "enter"), (3.0, "clear"),
                      (4.0, "enter"), (5.0, "clear")]
    assert mon.fired("hot")
    assert mon.summary() == {"hot": 2}
    assert not mon.active


def test_window_not_evaluated_until_full():
    rule = HealthRule("w3", "info", 3, lambda w: all(s["x"] > 0 for s in w))
    mon = HealthMonitor(None, [rule])
    mon.observe(0.0, {"x": 1})
    mon.observe(1.0, {"x": 1})
    assert mon.events == []              # only 2 of 3 buckets seen
    mon.observe(2.0, {"x": 1})
    assert [e.phase for e in mon.events] == ["enter"]


def test_predicate_data_attached():
    rule = HealthRule("d", "info", 1,
                      lambda w: (w[-1]["x"] > 0, {"x": w[-1]["x"]}))
    mon = HealthMonitor(None, [rule])
    mon.observe(0.0, {"x": 3})
    assert mon.events[0].data == {"x": 3}


def test_monitor_subscribes_to_hub():
    env = Environment()
    hub = TelemetryHub(env, period=1.0).install(env)
    rule = HealthRule("busy", "warning", 2,
                      lambda w: all(s.get("ops", 0) >= 2 for s in w))
    mon = HealthMonitor(hub, [rule])

    def producer():
        while True:
            hub.add("ops", 3)
            yield env.timeout(1.0)

    env.process(producer())
    env.run(until=4.5)
    assert mon.fired("busy")
    assert [e.phase for e in mon.events] == ["enter"]
    assert mon.events[0].t == 2.0        # second bucket fills the window


def _mk(state=0.0, stall=0.0, delayed=0.0, tx=0.0, rx=0.0, wops=0.0,
        redir=0.0, rb=0.0, dbytes=0.0):
    return {"wc.state": state, "wc.stall_time": stall,
            "wc.delayed_time": delayed, "pcie.tx_bytes": tx,
            "pcie.rx_bytes": rx, "lsm.write_ops": wops,
            "ctl.redirected": redir, "rollback.active": rb,
            "devlsm.bytes": dbytes}


def _rules_by_name():
    return {r.name: r for r in default_rules()}


def test_stall_storm_threshold():
    rule = _rules_by_name()["stall_storm"]
    stalled, clean = _mk(state=2.0), _mk()
    # 3/10 stalled buckets >= 30% fires; 2/10 does not.
    fired, data = rule.predicate([stalled] * 3 + [clean] * 7)
    assert fired and data["stalled_frac"] == 0.3
    fired, _ = rule.predicate([stalled] * 2 + [clean] * 8)
    assert not fired


def test_zero_traffic_while_stalled():
    rule = _rules_by_name()["zero_traffic_while_stalled"]
    idle_stall = _mk(state=2.0)
    busy_stall = _mk(state=2.0, tx=500 * MiB)
    fired, _ = rule.predicate([idle_stall, idle_stall])
    assert fired
    fired, _ = rule.predicate([idle_stall, busy_stall])   # link not idle
    assert not fired
    fired, _ = rule.predicate([idle_stall, _mk()])        # not stalled
    assert not fired


def test_rollback_not_converging():
    rule = _rules_by_name()["rollback_not_converging"]
    grow = [_mk(rb=1.0, dbytes=100.0 + i) for i in range(20)]
    assert rule.predicate(grow)[0]
    shrink = [_mk(rb=1.0, dbytes=100.0 - i) for i in range(20)]
    assert not rule.predicate(shrink)[0]
    inactive = [_mk(rb=0.0, dbytes=100.0) for _ in range(20)]
    assert not rule.predicate(inactive)


def test_delayed_rate_floor_needs_real_throttling():
    rule = _rules_by_name()["delayed_rate_floor"]
    floor = 0.5 * 16 * MiB / 4096
    starved = _mk(state=1.0, delayed=0.5, wops=1.0)
    assert rule.predicate([starved] * 5)[0]
    # DELAYED state without actual throttle time (KVACCEL's Main-LSM with
    # slowdown disabled) must not fire.
    fake = _mk(state=1.0, delayed=0.0, wops=1.0)
    assert not rule.predicate([fake] * 5)[0]
    # Redirected writes count as admitted.
    redirected = _mk(state=1.0, delayed=0.5, wops=1.0, redir=floor + 10)
    assert not rule.predicate([redirected] * 5)[0]
