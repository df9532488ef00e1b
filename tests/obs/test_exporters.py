"""obs CLI smoke: ``compare`` exit codes."""

from repro.obs.__main__ import main as obs_main


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
