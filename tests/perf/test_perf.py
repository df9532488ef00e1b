"""Tests for the repro.perf harness (microbenches, docs, CLI).

Wall-clock numbers are host-dependent, so these tests check structure and
arithmetic — positive throughput, correct speedup math, schema round-trip
— never absolute speeds.  The one environmental fact they do pin is the
event *count* of each microbenchmark, which is deterministic.
"""

import json

import pytest

from repro.perf import (
    HEADLINE_BENCH,
    KERNEL_BENCHES,
    PERF_VERSION,
    BenchResult,
    build_perf_doc,
    compare_perf,
    default_baseline_path,
    load_perf_doc,
    run_kernel_benches,
)
from repro.perf.__main__ import main as perf_main


class TestMicrobenches:
    def test_every_bench_runs_and_counts_events(self):
        for name, fn in KERNEL_BENCHES.items():
            r = fn()
            assert r.name == name
            assert r.events > 0
            assert r.wall_s > 0
            assert r.events_per_sec > 0

    def test_event_counts_deterministic(self):
        a = KERNEL_BENCHES[HEADLINE_BENCH]()
        b = KERNEL_BENCHES[HEADLINE_BENCH]()
        assert a.events == b.events

    def test_run_kernel_benches_selection_and_best_of(self):
        out = run_kernel_benches([HEADLINE_BENCH], repeats=2)
        assert list(out) == [HEADLINE_BENCH]
        assert isinstance(out[HEADLINE_BENCH], BenchResult)

    def test_unknown_bench_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_kernel_benches(["not_a_bench"], repeats=1)


class TestDocs:
    def test_build_and_load_round_trip(self, tmp_path):
        benches = {"x": BenchResult("x", 1000, 0.5)}
        doc = build_perf_doc(benches)
        p = tmp_path / "perf.json"
        p.write_text(json.dumps(doc))
        loaded = load_perf_doc(p)
        assert loaded["benches"]["x"]["events_per_sec"] == 2000.0
        assert loaded["schema"] == "repro-perf-baseline"

    def test_load_rejects_non_perf_doc(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text('{"schema": "something-else"}')
        with pytest.raises(ValueError):
            load_perf_doc(p)

    def test_compare_perf_speedup_math(self):
        baseline = {"benches": {"x": {"events_per_sec": 500.0},
                                "y": {"events_per_sec": 0.0}}}
        now = {"x": BenchResult("x", 1500, 1.0),    # 1500 ev/s -> 3.0x
               "y": BenchResult("y", 100, 1.0),     # zero baseline: skipped
               "z": BenchResult("z", 100, 1.0)}     # not in baseline: skipped
        speedups = compare_perf(baseline, now)
        assert speedups == {"x": pytest.approx(3.0)}

    def test_pinned_baseline_is_loadable(self):
        # The committed pre-fast-path numbers the CLI compares against.
        path = default_baseline_path()
        assert path.exists()
        doc = load_perf_doc(path)
        assert doc["version"] == PERF_VERSION
        # One pinned row per registered bench: the --fail-below gate skips
        # benches the baseline lacks, so a stale row or a missing one
        # silently narrows it.
        assert set(doc["benches"]) == set(KERNEL_BENCHES)
        assert doc["benches"][HEADLINE_BENCH]["events_per_sec"] > 0


class TestCli:
    def test_single_bench_smoke(self, capsys):
        rc = perf_main(["--bench", HEADLINE_BENCH, "--repeats", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert HEADLINE_BENCH in out
        assert "events/sec" in out

    def test_json_artifact(self, tmp_path, capsys):
        target = tmp_path / "perf.json"
        rc = perf_main(["--bench", HEADLINE_BENCH, "--repeats", "1",
                        "--json", str(target)])
        assert rc == 0
        doc = load_perf_doc(target)
        assert HEADLINE_BENCH in doc["benches"]

    def test_unknown_bench_exits_nonzero(self, capsys):
        rc = perf_main(["--bench", "nope", "--repeats", "1"])
        assert rc == 2

    def test_missing_explicit_baseline_exits_nonzero(self, tmp_path):
        rc = perf_main(["--bench", HEADLINE_BENCH, "--repeats", "1",
                        "--baseline", str(tmp_path / "absent.json")])
        assert rc == 2
