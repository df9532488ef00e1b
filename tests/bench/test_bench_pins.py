"""The checked-in ``benchmarks/BENCH_<exp>.json`` files are exact
determinism pins: a fresh ``python -m repro.bench <exp> --quick --json``
must reproduce every field of every cell, judged by ``python -m repro.obs
compare`` (both driven here through their CLI entry points).

Tier-1 covers the four experiments whose whole quick run is ~5 s; CI's
``bench-pins`` job checks all ten.  An intended model change regenerates
a pin with the command that wrote it:

    PYTHONPATH=src python -m repro.bench <exp> --quick --json
"""

import json
from pathlib import Path

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.baseline import default_baseline_path
from repro.bench.runner import WALL_EXTRA_KEYS
from repro.obs.__main__ import main as obs_main
from repro.obs.compare import load_baseline

PINS = Path(__file__).resolve().parents[2] / "benchmarks"
PINNED = ("cluster", "fig02", "fig03", "fig04", "fig05", "fig11", "fig12",
          "fig13", "fig14", "tab05")
TIER1 = ("fig03", "fig04", "fig05", "fig11")


def _pin(exp: str) -> Path:
    return default_baseline_path(exp, PINS)


@pytest.mark.parametrize("exp", TIER1)
def test_quick_run_reproduces_checked_in_pin(exp, tmp_path, capsys):
    assert bench_main([exp, "--quick", "--json", str(tmp_path)]) == 0
    capsys.readouterr()
    rc = obs_main(["compare", str(_pin(exp)),
                   str(default_baseline_path(exp, tmp_path))])
    assert rc == 0, capsys.readouterr().out


def test_all_checked_in_pins_load_without_wall_clock_keys():
    assert sorted(p.name for p in PINS.glob("BENCH_*.json")) == \
        [f"BENCH_{exp}.json" for exp in PINNED]
    for exp in PINNED:
        doc = load_baseline(str(_pin(exp)))
        assert doc["experiment"] == exp and doc["quick"] is True
        assert doc["checks_passed"] is True and doc["cells"]
        for cell in doc["cells"].values():
            assert not set(WALL_EXTRA_KEYS) & set(cell)
            assert cell["events_processed"] > 0


def test_mutated_pin_fails_naming_cell_and_field(tmp_path, capsys,
                                                  monkeypatch):
    doc = json.loads(_pin("fig11").read_text())
    flipped, dropped, grown = sorted(doc["cells"])[:3]
    doc["cells"][flipped]["stall_events"] += 1
    del doc["cells"][dropped]
    doc["cells"][grown]["bogus_metric"] = 1.0
    mutated = tmp_path / "BENCH_fig11.json"
    mutated.write_text(json.dumps(doc))
    monkeypatch.setenv("REPRO_DIVERGENCE_DIR", str(tmp_path / "div"))
    assert obs_main(["compare", str(_pin("fig11")), str(mutated)]) == 1
    out = capsys.readouterr().out
    assert f"({flipped}, stall_events)" in out
    assert f"({dropped}, <cell>)" in out
    assert f"({grown}, bogus_metric)" in out
    assert "3 difference(s)" in out
    # The same artifact the golden-fig11 test leaves for CI to upload.
    report = json.loads(
        (tmp_path / "div" / "pin_fig11.divergence.json").read_text())
    assert report["schema"] == "repro-divergence"
    assert [(d["cell"], d["field"]) for d in report["report"]["differences"]
            ] == [(flipped, "stall_events"), (dropped, "<cell>"),
                  (grown, "bogus_metric")]


@pytest.mark.parametrize("header", [{"schema": "repro-perf-baseline"},
                                    {"version": 2}])
def test_wrong_schema_or_old_version_is_not_a_pin(header, tmp_path, capsys):
    doc = json.loads(_pin("fig04").read_text())
    doc.update(header)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    assert obs_main(["compare", str(_pin("fig04")), str(other)]) == 2
    assert obs_main(["compare", str(other), str(_pin("fig04"))]) == 2
    assert obs_main(["compare", str(_pin("fig04")),
                     str(tmp_path / "absent.json")]) == 2
    assert "compare failed" in capsys.readouterr().err
