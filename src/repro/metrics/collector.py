"""Run-level metrics collection.

One :class:`RunCollector` per experiment run wires per-second samplers onto
a DB's counters and owns the latency histograms.  At the end of a run it
produces a :class:`RunResult` — the object every benchmark prints and
asserts against.

A run's hosts are a list of stacks, ``[(db, ssd, cpu), ...]`` in shard-id
order — one entry for a single store, one per shard for a cluster.  Every
fleet field is reduced over that list here and nowhere else, so one stack
and N go through the same formula.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from ..sim import Environment, PeriodicSampler, RateMeter
from .efficiency import efficiency
from .histogram import LatencyHistogram, tee

__all__ = ["RunCollector", "RunResult"]


@dataclass
class RunResult:
    """Everything a bench needs to reproduce a paper table/figure row."""

    name: str
    duration: float
    write_ops: int
    read_ops: int
    write_bytes: int
    # time series (bucket-end timestamps shared)
    times: list = field(default_factory=list)
    write_ops_series: list = field(default_factory=list)
    read_ops_series: list = field(default_factory=list)
    pcie_times: list = field(default_factory=list)
    pcie_series: list = field(default_factory=list)
    # latency
    write_latency: Optional[dict] = None
    read_latency: Optional[dict] = None
    # stalls / slowdowns
    stall_intervals: list = field(default_factory=list)
    stall_events: int = 0
    slowdown_events: int = 0
    total_stall_time: float = 0.0
    total_delayed_time: float = 0.0
    # per-StallReason attribution: {"stalls": {reason: n}, "stall_time":
    # {reason: s}, "slowdowns": {reason: n}, "delayed_time": {reason: s}}
    stall_breakdown: dict = field(default_factory=dict)
    # resources
    cpu_utilization: float = 0.0
    # telemetry (populated when a TelemetryHub ran alongside the workload):
    # hub.export() dict and the HealthMonitor's event dicts, in time order
    telemetry: Optional[dict] = None
    health_events: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def write_throughput_ops(self) -> float:
        return self.write_ops / self.duration if self.duration else 0.0

    @property
    def read_throughput_ops(self) -> float:
        return self.read_ops / self.duration if self.duration else 0.0

    @property
    def write_throughput_bytes(self) -> float:
        return self.write_bytes / self.duration if self.duration else 0.0

    @property
    def efficiency(self) -> float:
        return efficiency(self.write_throughput_bytes, self.cpu_utilization)

    @property
    def write_p99_us(self) -> float:
        return self.write_latency["p99"] if self.write_latency else 0.0

    def health_summary(self) -> dict:
        """Per-rule count of health-rule firings (enter edges)."""
        out: dict[str, int] = {}
        for e in self.health_events:
            if e.get("phase") == "enter":
                out[e["rule"]] = out.get(e["rule"], 0) + 1
        return out

    # -- serialization ----------------------------------------------------
    # ``extra`` is excluded: it holds live objects (snapshots, specs,
    # profile dataclasses) that have no stable JSON form.  Everything a
    # baseline or a plot needs is in the declared fields.
    _JSON_FIELDS = (
        "name", "duration", "write_ops", "read_ops", "write_bytes",
        "times", "write_ops_series", "read_ops_series",
        "pcie_times", "pcie_series", "write_latency", "read_latency",
        "stall_intervals", "stall_events", "slowdown_events",
        "total_stall_time", "total_delayed_time", "stall_breakdown",
        "cpu_utilization", "telemetry", "health_events",
    )

    def to_json(self) -> dict:
        doc = {}
        for f in self._JSON_FIELDS:
            v = getattr(self, f)
            if f == "stall_intervals":
                v = [[t0, t1] for (t0, t1) in v]
            doc[f] = v
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "RunResult":
        kwargs = {f: doc[f] for f in cls._JSON_FIELDS if f in doc}
        kwargs["stall_intervals"] = [
            (t0, t1) for (t0, t1) in kwargs.get("stall_intervals", [])]
        return cls(**kwargs)


class RunCollector:
    """Wires samplers + histograms onto a run."""

    def __init__(self, env: Environment, name: str, sample_period: float = 1.0):
        self.env = env
        self.name = name
        self.sample_period = sample_period
        self.write_meter = RateMeter()
        self.read_meter = RateMeter()
        self.write_hist = LatencyHistogram()
        self.read_hist = LatencyHistogram()
        self._write_sampler = PeriodicSampler(
            env, self.write_meter.take_delta, sample_period, name=f"{name}.wr")
        self._read_sampler = PeriodicSampler(
            env, self.read_meter.take_delta, sample_period, name=f"{name}.rd")
        self._t0 = env.now
        # A traced run streams both op counters into the Chrome trace as
        # "C" events, one sample per period.
        self._trace_sampler = None
        if env.tracer is not None:
            tracer, writes, reads = env.tracer, self.write_meter, self.read_meter

            def sample() -> None:
                tracer.counter(f"{name}.write_ops", writes.total)
                tracer.counter(f"{name}.read_ops", reads.total)

            self._trace_sampler = PeriodicSampler(
                env, sample, sample_period, name=f"{name}.trace")

    def attach_db_stats(self, stats) -> None:
        """Add our histograms as one more sink on a DbStats' latency
        hooks (a sink it already has keeps receiving)."""
        stats.write_latencies = tee(stats.write_latencies, self.write_hist)
        stats.read_latencies = tee(stats.read_latencies, self.read_hist)

    def stop(self) -> None:
        self._write_sampler.stop()
        self._read_sampler.stop()
        if self._trace_sampler is not None:
            self._trace_sampler.stop()

    def result(self, write_ops: int, read_ops: int, write_bytes: int,
               stacks=()) -> RunResult:
        """The run's RunResult; stall, CPU and PCIe fields are reduced over
        ``stacks`` (``[(db, ssd, cpu), ...]``, shard-id order): counters and
        the stall breakdown summed, stall intervals heap-merged, host CPU
        the mean over the stacks, the PCIe series summed bucket by bucket."""
        now = self.env.now
        duration = now - self._t0
        res = RunResult(
            name=self.name,
            duration=duration,
            write_ops=write_ops,
            read_ops=read_ops,
            write_bytes=write_bytes,
            times=list(self._write_sampler.times),
            write_ops_series=list(self._write_sampler.values),
            read_ops_series=list(self._read_sampler.values),
            write_latency=self.write_hist.summary() if self.write_hist.total_count else None,
            read_latency=self.read_hist.summary() if self.read_hist.total_count else None,
        )
        if not stacks:
            return res
        wcs = [db.write_controller for db, _ssd, _cpu in stacks]
        for wc in wcs:
            wc.finalize()
        res.stall_intervals = list(heapq.merge(*(wc.stall_intervals
                                                 for wc in wcs)))
        res.stall_events = sum(wc.stall_events for wc in wcs)
        res.slowdown_events = sum(wc.slowdown_events for wc in wcs)
        res.total_stall_time = sum(wc.total_stall_time for wc in wcs)
        res.total_delayed_time = sum(wc.total_delayed_time for wc in wcs)
        for wc in wcs:
            for section, counters in wc.breakdown().items():
                acc = res.stall_breakdown.setdefault(section, {})
                for reason, v in counters.items():
                    acc[reason] = acc.get(reason, 0) + v
        if duration > 0:
            res.cpu_utilization = sum(cpu.utilization(self._t0, now)
                                      for _db, _ssd, cpu in stacks) / len(stacks)
        # Every stack's ledger has the profile's bucket, so summing by
        # bucket index is exact.
        for _db, ssd, _cpu in stacks:
            times, values = ssd.pcie.ledger.series(t_end=now)
            if len(times) > len(res.pcie_times):
                res.pcie_series += [0.0] * (len(times) - len(res.pcie_series))
                res.pcie_times = times
            for i, x in enumerate(values):
                res.pcie_series[i] += x
        return res
