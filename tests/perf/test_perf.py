"""Tests for the repro.perf harness (two kernel benches, the profile CLI).

Wall-clock numbers are host-dependent and gate nothing, so these tests
check structure — positive throughput, CLI exit codes — never speeds.
The one fact they pin is the event *count* of a microbenchmark, which is
deterministic.
"""

import json
import types

import pytest

from repro.bench import runner
from repro.perf import bench_resource_handoff, bench_timeout_chain
from repro.perf.__main__ import main as perf_main


class TestMicrobenches:
    def test_every_bench_runs_and_counts_events(self):
        for name, r in (
                ("timeout_chain", bench_timeout_chain(procs=4, iters=50)),
                ("resource_handoff",
                 bench_resource_handoff(workers=4, rounds=50))):
            assert r.name == name
            assert r.events > 0
            assert r.wall_s > 0
            assert r.events_per_sec == pytest.approx(r.events / r.wall_s)

    def test_event_counts_deterministic(self):
        # Per looper: ``iters`` timeouts and its finish (its boot is
        # scheduled as the world is built, before the count starts).
        a = bench_timeout_chain(procs=8, iters=100)
        assert a.events == bench_timeout_chain(procs=8, iters=100).events
        assert a.events == 8 * 101


class TestCli:
    def test_unknown_bench_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            perf_main(["profile", "timeout_chain"])
        assert exc.value.code == 2

    def test_cell_profile_reports_peak_rss(self, capsys, monkeypatch,
                                           tmp_path):
        """A cell target prints the process's peak RSS beside the event
        count, then the seven kernel counters, and writes them into the
        JSON document.  The cell itself is stubbed: the runner's own tests
        cover what it simulates."""
        counters = {"heap_pushes": 7, "heap_pops": 6, "wall_ns": 2_000_000,
                    "resource_requests": 3, "resource_queued": 1,
                    "macro": {"ops": 8, "events": 2, "bursts": 1,
                              "coalesce_factor": 4.0},
                    "timeout_pool_hit_rate": 0.0}

        def fake_run(spec, profile, kernel_profile):
            return types.SimpleNamespace(extra={
                "events_processed": 7, "kernel_profile": counters})
        monkeypatch.setattr(runner, "run_workload", fake_run)
        out_json = tmp_path / "p.json"
        assert perf_main(["profile", "mini", "--json", str(out_json)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "(7 events in " in lines[0] and " MiB)" in lines[0]
        assert "7 / 6" in lines[1]
        assert "(1 queued)" in lines[2]
        assert "coalesce factor 4.0x" in lines[4]
        doc = json.loads(out_json.read_text())
        assert doc["peak_rss_mb"] > 0
        assert f"peak RSS {doc['peak_rss_mb']:.1f} MiB" in lines[0]
        assert doc["profile"] == counters
