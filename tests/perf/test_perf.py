"""Tests for the repro.perf harness (microbenches, CLI).

Wall-clock numbers are host-dependent and gate nothing, so these tests
check structure — positive throughput, selection, CLI exit codes — never
speeds.  The one fact they pin is the event *count* of a microbenchmark,
which is deterministic.
"""

import pytest

from repro.perf import KERNEL_BENCHES, BenchResult, run_kernel_benches
from repro.perf.__main__ import main as perf_main

BENCH = "timeout_chain"


class TestMicrobenches:
    def test_every_bench_runs_and_counts_events(self):
        for name, fn in KERNEL_BENCHES.items():
            r = fn()
            assert r.name == name
            assert r.events > 0
            assert r.wall_s > 0
            assert r.events_per_sec == pytest.approx(r.events / r.wall_s)

    def test_event_counts_deterministic(self):
        a = KERNEL_BENCHES[BENCH]()
        b = KERNEL_BENCHES[BENCH]()
        assert a.events == b.events

    def test_run_kernel_benches_selection_and_best_of(self):
        out = run_kernel_benches([BENCH], repeats=2)
        assert list(out) == [BENCH]
        assert isinstance(out[BENCH], BenchResult)

    def test_unknown_bench_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_kernel_benches(["not_a_bench"], repeats=1)


class TestCli:
    def test_single_bench_smoke(self, capsys):
        rc = perf_main(["--bench", BENCH, "--repeats", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert BENCH in out
        assert "events/sec" in out

    def test_unknown_bench_exits_nonzero(self, capsys):
        rc = perf_main(["--bench", "nope", "--repeats", "1"])
        assert rc == 2

    def test_cell_profile_reports_peak_rss(self, capsys, monkeypatch,
                                           tmp_path):
        """A cell target prints the process's peak RSS beside the event
        count and writes it into the JSON document.  The cell itself is
        stubbed: the runner's own tests cover what it simulates."""
        import json
        import types

        from repro.bench import runner

        def fake_run(spec, profile, kernel_profile):
            return types.SimpleNamespace(extra={
                "events_processed": 7,
                "kernel_profile": {"events_by_class": {"Timeout": 7}}})
        monkeypatch.setattr(runner, "run_workload", fake_run)
        out_json = tmp_path / "p.json"
        assert perf_main(["profile", "mini", "--json", str(out_json)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert "(7 events in " in line and " MiB)" in line
        doc = json.loads(out_json.read_text())
        assert doc["peak_rss_mb"] > 0
        assert f"peak RSS {doc['peak_rss_mb']:.1f} MiB" in line
