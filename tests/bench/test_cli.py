"""Tests for the `python -m repro.bench` CLI."""

import pytest

from repro.bench.__main__ import main
from repro.bench.experiments import ALL


def test_listing(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    for name in ALL:
        assert name in out


def test_list_flag(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name, module in ALL.items():
        assert name in out
        # one-line description from the module docstring rides along
        first_line = (module.__doc__ or "").strip().splitlines()[0]
        assert first_line[:40] in out


def test_unknown_experiment(capsys):
    assert main(["nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown" in err
    assert "--list" in err


def test_bad_jobs_rejected():
    with pytest.raises(SystemExit):
        main(["tab06", "--jobs", "0"])


def test_single_experiment_quick(capsys, monkeypatch):
    # tab06 is the cheapest experiment (pure microbench)
    assert main(["tab06", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Table VI" in out
    assert "all shape checks passed" in out


def test_failed_check_returns_nonzero(monkeypatch, capsys):
    class FakeCheck:
        passed = False

    fake = type(ALL["tab06"])("fake")
    fake.run = lambda quick=False, options=None: {"check": FakeCheck(),
                                                  "results": {}}
    monkeypatch.setitem(ALL, "fakeexp", fake)
    assert main(["fakeexp"]) == 1
    assert "FAILED" in capsys.readouterr().err


def _fake_lineage_experiment(monkeypatch):
    """Register ``fakeexp``: one hand-built cell carrying a lineage record."""
    from repro.metrics import RunResult

    class PassedCheck:
        passed = True

    op = {"op_id": 0, "kind": "put_batch", "scope": "db", "count": 1,
          "nbytes": 100, "t0": 0.0, "e2e": 2e-6,
          "segs": {"wal": 2e-6, "unattributed": 0.0}}
    result = RunResult("cell", duration=1.0, write_ops=1, read_ops=0,
                       write_bytes=100,
                       extra={"lineage": {"ops": [op], "exemplars": []}})
    fake = type(ALL["tab06"])("fake")
    fake.run = lambda quick=False, options=None: {
        "check": PassedCheck(), "results": {"cell": result}}
    monkeypatch.setitem(ALL, "fakeexp", fake)


def test_json_pin_creates_its_missing_directory(tmp_path, monkeypatch):
    _fake_lineage_experiment(monkeypatch)
    pin = tmp_path / "nodir" / "fake.json"
    assert main(["fakeexp", "--json", str(pin)]) == 0
    assert '"experiment": "fakeexp"' in pin.read_text()


def test_lineage_json_lands_beside_the_pin(tmp_path, monkeypatch):
    _fake_lineage_experiment(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pins").mkdir()
    assert main(["fakeexp", "--lineage", "--json", "pins/fake.json"]) == 0
    assert (tmp_path / "pins" / "fake.json").exists()
    assert (tmp_path / "pins" / "LINEAGE_fakeexp.json").exists()
    assert not (tmp_path / "benchmarks").exists()
    # a directory target keeps both files in that directory
    assert main(["fakeexp", "--lineage", "--json", "pins"]) == 0
    assert (tmp_path / "pins" / "BENCH_fakeexp.json").exists()
    assert not (tmp_path / "benchmarks").exists()
