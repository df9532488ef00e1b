"""Per-shard health/SLO rule instances over cluster channels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import RunSpec, mini_profile, run_workload
from repro.obs import cluster_shard_rules, default_rules
from repro.obs import rules as rules_mod
from repro.obs.rules import HealthMonitor

# The rules a shard instance shares with the fleet set.
SHARED = ("stall_storm", "degraded_mode_entered", "retry_storm")


def _sample(stalls=(), degraded=()):
    """One telemetry bucket: ``stalls``/``degraded`` name the shard ids
    exhibiting the symptom."""
    s = {}
    for k in stalls:
        s[f"cluster.shard{k}.stall_time"] = 0.9
    for k in degraded:
        s[f"cluster.shard{k}.resil_state"] = 2.0
    return s


def test_rule_instances_per_shard():
    rules = cluster_shard_rules(3)
    names = [r.name for r in rules]
    for k in range(3):
        assert f"stall_storm.shard{k}" in names
        assert f"degraded_mode_entered.shard{k}" in names
        assert f"retry_storm.shard{k}" in names
        assert f"shard_failover.shard{k}" in names
    assert "rebalance_stuck" in names
    assert len(rules) == 13  # 4 per shard + one fleet-wide rule
    with pytest.raises(ValueError):
        cluster_shard_rules(0)


@settings(max_examples=100, deadline=None)
@given(buckets=st.lists(st.tuples(st.sampled_from([0.0, 0.4, 0.6, 1.0]),
                                  st.sampled_from([0.0, 1.0, 2.0]),
                                  st.sampled_from([0.0, 150.0, 250.0])),
                        min_size=1, max_size=30))
def test_a_shard_instance_is_the_fleet_rule_on_its_channels(buckets):
    """Shard 1's stall_storm, degraded_mode_entered and retry_storm over
    ``cluster.shard1.*`` fire exactly where the fleet rules do over the
    store's own channels, with the same severity and event data, the
    shard id first."""
    fleet = [r for r in default_rules() if r.name in SHARED]
    shard = [r for r in cluster_shard_rules(2)
             if r.name in [f"{name}.shard1" for name in SHARED]]
    assert [r.window for r in fleet] == [r.window for r in shard]
    mon_fleet = HealthMonitor(None, fleet)
    mon_shard = HealthMonitor(None, shard)
    for t, (stall, state, retries) in enumerate(buckets):
        mon_fleet.observe(float(t), {"wc.stall_time": stall,
                                     "resil.state": state,
                                     "resil.retries": retries})
        mon_shard.observe(float(t), {"cluster.shard1.stall_time": stall,
                                     "cluster.shard1.resil_state": state,
                                     "cluster.shard1.retries": retries})
    assert ([(f"{e.rule}.shard1", e.severity, e.t, e.phase,
              [("shard", 1), *e.data.items()]) for e in mon_fleet.events]
            == [(e.rule, e.severity, e.t, e.phase, list(e.data.items()))
                for e in mon_shard.events])


def test_retry_storm_fires_only_on_the_storming_shard(monkeypatch):
    monkeypatch.setattr(rules_mod, "RETRY_STORM_RATE", 50.0)
    mon = HealthMonitor(None, cluster_shard_rules(2))
    # Three buckets of sustained retry pressure on shard 1 only.
    for t in range(3):
        mon.observe(float(t), {"cluster.shard1.retries": 80.0})
    fired = {e.rule for e in mon.events if e.phase == "enter"}
    assert fired == {"retry_storm.shard1"}
    ev = next(e for e in mon.events if e.rule == "retry_storm.shard1")
    assert ev.data["shard"] == 1
    assert ev.data["retries_per_bucket"] >= 50.0


def test_stall_storm_fires_only_on_the_storming_shard():
    mon = HealthMonitor(None, cluster_shard_rules(2))
    # Ten buckets with shard 1 stalled well past the 30% threshold;
    # shard 0 stays clean.
    for t in range(10):
        mon.observe(float(t), _sample(stalls=(1,) if t % 2 == 0 else ()))
    fired = {e.rule for e in mon.events if e.phase == "enter"}
    assert fired == {"stall_storm.shard1"}
    ev = next(e for e in mon.events if e.rule == "stall_storm.shard1")
    assert ev.data["shard"] == 1
    assert ev.data["stalled_frac"] >= 0.3


def test_degraded_entry_carries_shard_id():
    mon = HealthMonitor(None, cluster_shard_rules(4))
    mon.observe(0.0, _sample(degraded=(2,)))
    enters = [e for e in mon.events if e.phase == "enter"]
    assert [e.rule for e in enters] == ["degraded_mode_entered.shard2"]
    assert enters[0].data == {"shard": 2, "resil_state": 2.0}


def test_cluster_run_installs_shard_rules():
    """A multi-shard cluster cell with telemetry on gets the per-shard
    instances automatically (no health events expected on a healthy
    run — the point is that the rules are live on shard channels)."""
    result = run_workload(
        RunSpec("cluster", "A", 1, rollback="disabled", shards=2),
        mini_profile(64), telemetry=True)
    assert result.telemetry is not None
    # Shard channels exist for the rules to read.
    channels = set(result.telemetry["channels"])
    assert any(c.startswith("cluster.shard0.") for c in channels)
    assert any(c.startswith("cluster.shard1.") for c in channels)
