"""Tests for histograms, efficiency, PCIe stall stats, and the collector."""

import pytest

from repro.metrics import (
    LatencyHistogram,
    RunCollector,
    analyze_stall_pcie,
    efficiency,
    utilization_cdf,
    zero_traffic_buckets,
)
from repro.sim import Environment


class TestHistogram:
    def test_percentiles_of_uniform(self):
        h = LatencyHistogram()
        for v in range(1, 1001):
            h.record(float(v))
        assert h.percentile(50) == pytest.approx(500, rel=0.05)
        assert h.percentile(99) == pytest.approx(990, rel=0.05)
        assert h.total_count == 1000
        assert h.mean == pytest.approx(500.5, rel=0.01)

    def test_min_max(self):
        h = LatencyHistogram()
        h.record(3.0)
        h.record(777.0)
        assert h.min == 3.0
        assert h.max == 777.0

    def test_empty(self):
        h = LatencyHistogram()
        assert h.percentile(99) == 0.0
        assert h.mean == 0.0
        assert h.min == 0.0

    def test_weighted_record(self):
        h = LatencyHistogram()
        h.record(10.0, count=99)
        h.record(1000.0, count=1)
        assert h.percentile(50) == pytest.approx(10, rel=0.1)
        assert h.percentile(99.9) == pytest.approx(1000, rel=0.1)

    def test_below_min_clamps(self):
        h = LatencyHistogram(min_value=1.0)
        h.record(0.0001)
        assert h.percentile(50) <= 1.0

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for v in range(1, 501):
            a.record(float(v))
        for v in range(501, 1001):
            b.record(float(v))
        a.merge(b)
        assert a.total_count == 1000
        assert a.percentile(50) == pytest.approx(500, rel=0.05)

    def test_summary_keys(self):
        h = LatencyHistogram()
        h.record(5)
        s = h.summary()
        assert set(s) == {"count", "mean", "min", "max", "p50", "p99", "p99.9"}

    def test_validation(self):
        h = LatencyHistogram()
        with pytest.raises(ValueError):
            h.record(-1)
        with pytest.raises(ValueError):
            h.record(1, count=0)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            LatencyHistogram(min_value=0)


class TestEfficiency:
    def test_paper_units(self):
        # 100 MB/s at 50% CPU -> 100 / 50 = 2.0
        assert efficiency(100 * 1024 * 1024, 0.5) == pytest.approx(2.0)

    def test_zero_cpu(self):
        assert efficiency(0, 0) == 0.0
        assert efficiency(100, 0) == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            efficiency(-1, 0.5)
        with pytest.raises(ValueError):
            efficiency(1, -0.5)


class TestPcieStats:
    def test_stall_bucket_classification(self):
        times = [1.0, 2.0, 3.0, 4.0, 5.0]
        traffic = [0.0, 95.0, 50.0, 0.0, 100.0]
        stalls = [(0.0, 4.0)]  # covers buckets 1..4
        stats = analyze_stall_pcie(times, traffic, stalls, capacity=100.0)
        assert stats.stall_buckets == 4
        assert stats.zero_buckets == 2
        assert stats.above_90_buckets == 1
        assert stats.zero_fraction == pytest.approx(0.5)
        assert stats.above_90_fraction == pytest.approx(0.25)

    def test_no_stalls(self):
        stats = analyze_stall_pcie([1.0], [50.0], [], capacity=100.0)
        assert stats.stall_buckets == 0
        assert stats.zero_fraction == 0.0

    def test_cdf_monotone(self):
        xs, cdf = utilization_cdf([0.1, 0.5, 0.9, 0.9])
        assert cdf[0] >= 0.0
        assert cdf[-1] == 1.0
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))

    def test_cdf_empty(self):
        xs, cdf = utilization_cdf([])
        assert all(v == 0.0 for v in cdf)

    def test_zero_traffic_buckets(self):
        times = [1.0, 2.0, 3.0]
        traffic = [0.0, 5000.0, 100.0]
        stalls = [(0.0, 3.0)]
        assert zero_traffic_buckets(times, traffic, stalls) == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            analyze_stall_pcie([1.0], [1.0], [], capacity=0)


class TestRunCollector:
    def test_series_and_result(self):
        env = Environment()
        col = RunCollector(env, "test", sample_period=1.0)

        def workload():
            for i in range(40):
                yield env.timeout(0.1)
                col.write_meter.add()

        env.process(workload())
        env.run(until=5.0)
        col.stop()
        res = col.result(write_ops=40, read_ops=0, write_bytes=40 * 4096)
        assert res.write_ops == 40
        assert len(res.times) == 4
        assert sum(res.write_ops_series) <= 40
        assert res.write_throughput_ops == pytest.approx(8.0)
        assert res.write_throughput_bytes == pytest.approx(40 * 4096 / 5)

    def test_attaches_latency_hooks(self):
        env = Environment()
        col = RunCollector(env, "t")

        class FakeStats:
            write_latencies = None
            read_latencies = None

        stats = FakeStats()
        col.attach_db_stats(stats)
        assert stats.write_latencies is col.write_hist
        stats.write_latencies.record(100.0)
        col.stop()
        res = col.result(1, 0, 10)
        assert res.write_latency["count"] == 1
        assert res.write_p99_us > 0

    def test_result_with_cpu_and_pcie(self):
        from types import SimpleNamespace

        from repro.device import CpuModel, PcieLink
        from repro.lsm import LsmOptions
        from repro.lsm.write_controller import WriteController
        env = Environment()
        cpu = CpuModel(env, cores=2)
        pcie = PcieLink(env, bandwidth=1000)
        col = RunCollector(env, "t")

        def workload():
            yield from cpu.consume(1.0)
            yield from pcie.transfer(500)

        env.process(workload())
        env.run(until=4.0)
        col.stop()
        db = SimpleNamespace(write_controller=WriteController(
            env, LsmOptions(), lambda: None))
        res = col.result(0, 0, 0, [(db, SimpleNamespace(pcie=pcie), cpu)])
        assert res.cpu_utilization == pytest.approx(1.0 / 8.0)
        assert sum(res.pcie_series) == pytest.approx(500)
