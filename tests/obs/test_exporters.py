"""Exporters + obs CLI smoke: Prometheus text, CSV, compare exit codes."""

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.exporters import (
    telemetry_to_csv,
    telemetry_to_prometheus,
    write_telemetry_csv,
)
from repro.obs.telemetry import TelemetryHub
from repro.sim import Environment


@pytest.fixture()
def hub():
    env = Environment()
    h = TelemetryHub(env, period=1.0).install(env)
    h.gauge("lsm.l0", lambda: 4.0)

    def producer():
        while True:
            h.add("lsm.write_ops", 10)
            yield env.timeout(1.0)

    env.process(producer())
    env.run(until=3.5)
    h.stop(flush=True)
    return h


def test_prometheus_text(hub):
    text = telemetry_to_prometheus(hub)
    assert "# TYPE repro_lsm_write_ops gauge" in text
    assert "repro_lsm_write_ops 10" in text          # last bucket value
    assert "repro_lsm_write_ops_total 40" in text    # rate counter total
    assert "repro_lsm_l0 4" in text
    assert "repro_sim_time_seconds 3.5" in text
    # The dict export renders identically to the live hub.
    assert telemetry_to_prometheus(hub.export()) == text


def test_prometheus_labels(hub):
    text = telemetry_to_prometheus(hub, labels={"cell": "KVAccel(1)"})
    assert 'repro_lsm_l0{cell="KVAccel(1)"} 4' in text


def test_csv(hub, tmp_path):
    text = telemetry_to_csv(hub)
    lines = text.strip().splitlines()
    assert lines[0] == "time,lsm.l0,lsm.write_ops"
    assert len(lines) == 1 + 4                       # 3 full + 1 flushed
    assert lines[1].startswith("1")
    path = tmp_path / "tel.csv"
    write_telemetry_csv(hub, path)
    assert path.read_text() == text


def test_cli_compare_exit_codes(tmp_path, capsys):
    import json
    doc = {"schema": "repro-bench-baseline", "version": 3,
           "experiment": "x", "profile": "mini256",
           "cells": {"c": {"write_throughput_ops": 100.0, "health": {}}}}
    a = tmp_path / "a.json"
    a.write_text(json.dumps(doc))
    moved = dict(doc, cells={"c": {"write_throughput_ops": 10.0,
                                   "health": {}}})
    b = tmp_path / "b.json"
    b.write_text(json.dumps(moved))
    assert obs_main(["compare", str(a), str(a)]) == 0
    assert obs_main(["compare", str(a), str(b)]) == 1
    assert obs_main(["compare", str(a), str(tmp_path / "missing.json")]) == 2
    out = capsys.readouterr().out
    assert "(c, write_throughput_ops): 100.0 -> 10.0" in out
