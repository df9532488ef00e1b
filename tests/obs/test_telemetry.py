"""Unit tests for the TelemetryHub per-second pipeline."""

import pytest

from repro.obs.telemetry import Channel, TelemetryHub
from repro.sim import Environment


def test_channel_kind_validation():
    with pytest.raises(ValueError):
        Channel("x", "histogram")
    with pytest.raises(ValueError):
        Channel("x", "gauge")          # gauge needs a callback
    with pytest.raises(ValueError):
        Channel("x", "deriv")


def test_rate_channel_buckets():
    env = Environment()
    hub = TelemetryHub(env, period=1.0).install(env)

    def producer():
        hub.add("ops", 3)
        yield env.timeout(0.5)
        hub.add("ops", 2)
        yield env.timeout(1.0)          # crosses the t=1 bucket boundary
        hub.add("ops", 7)

    env.process(producer())
    env.run(until=2.5)
    assert hub.series("ops") == [5.0, 7.0]
    assert hub.times == [1.0, 2.0]
    assert hub.channels["ops"].total == 12.0


def test_gauge_channel_sampled_at_bucket_end():
    env = Environment()
    hub = TelemetryHub(env, period=1.0)
    state = {"v": 10.0}
    hub.gauge("depth", lambda: state["v"])

    def mutator():
        yield env.timeout(0.9)
        state["v"] = 20.0
        yield env.timeout(1.0)
        state["v"] = 30.0

    env.process(mutator())
    env.run(until=2.5)
    # Bucket ends read the value at that instant: t=1 -> 20, t=2 -> 30.
    assert hub.series("depth") == [20.0, 30.0]


def test_deriv_channel_deltas():
    env = Environment()
    hub = TelemetryHub(env, period=1.0)
    cum = {"v": 0.0}
    hub.deriv("busy", lambda: cum["v"])

    def counter():
        cum["v"] = 4.0
        yield env.timeout(1.5)
        cum["v"] = 10.0
        yield env.timeout(1.0)
        cum["v"] = 10.0     # idle bucket

    env.process(counter())
    env.run(until=3.5)
    # First bucket carries the full cumulative value, then deltas.
    assert hub.series("busy") == [4.0, 6.0, 0.0]


def test_mid_run_channel_backfills_zeros():
    env = Environment()
    hub = TelemetryHub(env, period=1.0)

    def late_publisher():
        yield env.timeout(2.5)
        hub.add("late", 1.0)

    env.process(late_publisher())
    env.run(until=3.5)
    # Born after two buckets closed: zeros backfilled to stay aligned.
    assert hub.series("late") == [0.0, 0.0, 1.0]
    assert len(hub.times) == 3


def test_redeclare_kind_mismatch():
    env = Environment()
    hub = TelemetryHub(env, period=1.0)
    hub.rate("x")
    with pytest.raises(ValueError, match="is rate"):
        hub.gauge("x", lambda: 0.0)


def test_flush_partial_bucket():
    env = Environment()
    hub = TelemetryHub(env, period=1.0).install(env)

    def producer():
        yield env.timeout(1.2)
        hub.add("ops", 5)

    env.process(producer())
    env.run(until=1.7)
    assert hub.times == [1.0]
    assert hub.flush() is True
    assert hub.times == [1.0, 1.7]
    assert hub.series("ops") == [0.0, 5.0]
    assert hub.flush() is False          # idempotent at the same clock
    hub.stop()                           # stop's flush is also a no-op now
    assert hub.times == [1.0, 1.7]


def test_on_sample_callbacks():
    env = Environment()
    hub = TelemetryHub(env, period=1.0)
    hub.rate("ops")
    seen = []
    hub.on_sample(lambda t, s: seen.append((t, dict(s))))

    def producer():
        hub.add("ops")
        yield env.timeout(2.5)

    env.process(producer())
    env.run(until=2.5)
    assert [t for t, _ in seen] == [1.0, 2.0]
    assert seen[0][1] == {"ops": 1.0}
    assert seen[1][1] == {"ops": 0.0}


def test_export_shape():
    env = Environment()
    hub = TelemetryHub(env, period=0.5)
    hub.rate("b")
    hub.gauge("a", lambda: 1.0)
    env.run(until=1.1)
    doc = hub.export()
    assert doc["period"] == 0.5
    assert doc["times"] == [0.5, 1.0]
    assert sorted(doc["channels"]) == ["a", "b"]
    assert doc["kinds"] == {"a": "gauge", "b": "rate"}
    assert all(len(v) == len(doc["times"]) for v in doc["channels"].values())


def test_of_and_len():
    env = Environment()
    assert env.telemetry is None
    hub = TelemetryHub(env, period=1.0).install(env)
    assert env.telemetry is hub
    env.run(until=3.5)
    assert len(hub) == 3


def test_invalid_period():
    env = Environment()
    with pytest.raises(ValueError):
        TelemetryHub(env, period=0)
