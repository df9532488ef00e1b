"""Tests for TrafficLedger and BandwidthPipe/PcieLink."""

import pytest

from repro.device import BandwidthPipe, PcieLink, TrafficLedger, pcie
from repro.device.pcie import PCIE_LATENCY
from repro.sim import Environment


class TestTrafficLedger:
    def test_single_bucket(self):
        led = TrafficLedger()
        led.record(0.2, 0.8, 600)
        times, values = led.series()
        assert times == [1.0]
        assert values == [600]

    def test_spread_across_buckets_proportional(self):
        led = TrafficLedger()
        led.record(0.5, 2.5, 2000)  # 1000 B/s for 2 s
        _, values = led.series()
        assert values == pytest.approx([500, 1000, 500])

    def test_instantaneous_record(self):
        led = TrafficLedger()
        led.record(3.0, 3.0, 42)
        times, values = led.series()
        assert values[-1] == 42
        assert led.total_bytes == 42

    def test_zero_bytes_ok(self):
        led = TrafficLedger()
        led.record(0, 1, 0)
        assert led.total_bytes == 0

    def test_series_with_t_end_pads_zeros(self):
        led = TrafficLedger()
        led.record(0.0, 1.0, 10)
        times, values = led.series(t_end=5.0)
        assert len(times) == 5
        assert values == [10, 0, 0, 0, 0]

    def test_empty_series(self):
        led = TrafficLedger()
        assert led.series() == ([], [])

    def test_bytes_in_window(self):
        led = TrafficLedger()
        led.record(0.0, 4.0, 400)
        assert led.bytes_in(1.0, 3.0) == pytest.approx(200)

    def test_validation(self):
        led = TrafficLedger()
        with pytest.raises(ValueError):
            led.record(1, 0, 5)
        with pytest.raises(ValueError):
            led.record(0, 1, -5)
        with pytest.raises(ValueError):
            TrafficLedger(bucket=0)

    def test_conservation_many_records(self):
        led = TrafficLedger()
        total = 0.0
        for i in range(50):
            led.record(i * 0.37, i * 0.37 + 1.3, 77)
            total += 77
        _, values = led.series()
        assert sum(values) == pytest.approx(total)
        assert led.total_bytes == pytest.approx(total)


class TestBandwidthPipe:
    def test_service_time(self):
        env = Environment()
        pipe = BandwidthPipe(env, bandwidth=100)
        assert pipe.service_time(200) == pytest.approx(2.0 + PCIE_LATENCY)

    def test_transfer_blocks_for_service_time(self):
        env = Environment()
        pipe = BandwidthPipe(env, bandwidth=1000)
        done = []

        def proc():
            yield from pipe.transfer(500)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [pytest.approx(0.5 + PCIE_LATENCY)]

    def test_fifo_serialization(self):
        env = Environment()
        pipe = BandwidthPipe(env, bandwidth=100)
        done = []

        def proc(name, n):
            yield from pipe.transfer(n)
            done.append((name, env.now))

        env.process(proc("a", 100))  # 1s
        env.process(proc("b", 200))  # next 2s
        env.run()
        assert done == [("a", pytest.approx(1.0 + PCIE_LATENCY)),
                        ("b", pytest.approx(3.0 + 2 * PCIE_LATENCY))]

    def test_ledger_records_transfers(self):
        env = Environment()
        pipe = BandwidthPipe(env, bandwidth=100)

        def proc():
            yield from pipe.transfer(250)

        env.process(proc())
        env.run()
        assert pipe.ledger.total_bytes == 250

    def test_invalid_args(self):
        env = Environment()
        with pytest.raises(ValueError):
            BandwidthPipe(env, bandwidth=0)
        pipe = BandwidthPipe(env, bandwidth=10)
        with pytest.raises(ValueError):
            list(pipe.transfer(-1))

    def test_busy_time_accumulates(self):
        env = Environment()
        pipe = BandwidthPipe(env, bandwidth=100)

        def proc():
            yield from pipe.transfer(100)
            yield from pipe.transfer(300)

        env.process(proc())
        env.run()
        # Busy for 1 + 3 s (plus the setup latency of each transfer) back
        # to back: each transfer's bytes spread evenly over its interval.
        end = 4.0 + 2 * PCIE_LATENCY
        assert env.now == pytest.approx(end)
        spans = [(0.0, 1.0 + PCIE_LATENCY, 100),
                 (1.0 + PCIE_LATENCY, end, 300)]
        _, values = pipe.ledger.series()
        assert values == pytest.approx(
            [sum(n * max(0.0, min(t1, b + 1) - max(t0, b)) / (t1 - t0)
                 for t0, t1, n in spans) for b in range(5)])


class TestPcieLink:
    def test_defaults(self):
        env = Environment()
        link = PcieLink(env)
        assert link.bandwidth == PcieLink.GEN2_X8
        assert link.ledger is not None

    def test_link_traffic_series(self, monkeypatch):
        monkeypatch.setattr(pcie, "PCIE_LATENCY", 0.0)
        env = Environment()
        link = PcieLink(env, bandwidth=1000)

        def proc():
            yield from link.transfer(1500)  # spans 1.5 s

        env.process(proc())
        env.run()
        _, values = link.ledger.series()
        assert sum(values) == pytest.approx(1500)
        assert values[0] == pytest.approx(1000)
