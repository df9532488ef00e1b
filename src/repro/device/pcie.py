"""PCIe link model and byte-traffic accounting.

The paper measures host<->device PCIe traffic at 1-second granularity with
Intel PCM (Figs 4, 5, 14).  :class:`TrafficLedger` is our PCM: every
transfer records its byte count spread over the simulated-time interval it
occupied, so per-second buckets can be read back as a time series.

:class:`BandwidthPipe` models a shared, FIFO link: a transfer of ``n`` bytes
holds the pipe for ``PCIE_LATENCY + n / bandwidth`` seconds and is recorded
in the pipe's own ledger.  The PCIe link and each shard's replication link
are the instances; the NAND array keeps its own timing and a byte total.
"""

from __future__ import annotations

import math
from typing import Generator, Optional

from ..faults.registry import DELAY
from ..sim import Environment, Resource

__all__ = ["TrafficLedger", "BandwidthPipe", "PcieLink", "MACRO_MAX"]

# Macro-event group size: burst APIs (transfer_burst, NandArray.io_burst)
# coalesce at most this many operations into one scheduled kernel event,
# releasing and re-requesting their channel between groups so a burst can
# never starve concurrent traffic for more than one group's service time.
MACRO_MAX = 16
# Per-transfer setup latency of every pipe (seconds): the host<->device
# link and each shard's replication link.
PCIE_LATENCY = 5e-6


class TrafficLedger:
    """Per-second byte accounting, PCM-style.

    Bytes of a transfer spanning [t0, t1) are attributed to 1-second buckets
    proportionally to the overlap, matching how a hardware counter sampled
    once a second would see a long DMA.
    """

    def __init__(self, bucket: float = 1.0):
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        self.bucket = bucket
        self._buckets: dict[int, float] = {}
        self.total_bytes = 0.0

    def record(self, t0: float, t1: float, nbytes: float) -> None:
        """Attribute ``nbytes`` transferred during [t0, t1)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if t1 < t0:
            raise ValueError("t1 < t0")
        self.total_bytes += nbytes
        if nbytes == 0:
            return
        bucket, buckets = self.bucket, self._buckets
        first = int(t0 / bucket)
        if t1 == t0:
            buckets[first] = buckets.get(first, 0.0) + nbytes
            return
        rate = nbytes / (t1 - t0)
        last = int(math.ceil(t1 / bucket)) - 1
        if first == last:
            # Most transfers end in the bucket they began in: the loop
            # below for one bucket, its max/min written out.
            lo = first * bucket
            if t0 >= lo:
                lo = t0
            hi = (first + 1) * bucket
            if t1 <= hi:
                hi = t1
            if hi > lo:
                buckets[first] = buckets.get(first, 0.0) + rate * (hi - lo)
            return
        for b in range(first, last + 1):
            lo = max(t0, b * bucket)
            hi = min(t1, (b + 1) * bucket)
            if hi > lo:
                buckets[b] = buckets.get(b, 0.0) + rate * (hi - lo)

    def series(self, t_end: Optional[float] = None) -> tuple[list[float], list[float]]:
        """Return (times, bytes-per-bucket) from t=0 to t_end (or max seen)."""
        if not self._buckets and t_end is None:
            return [], []
        if t_end is not None:
            last = int(math.ceil(t_end / self.bucket)) - 1
        else:
            last = max(self._buckets)
        if self._buckets:
            last = max(last, max(self._buckets))
        times = [(b + 1) * self.bucket for b in range(0, last + 1)]
        values = [self._buckets.get(b, 0.0) for b in range(0, last + 1)]
        return times, values

    def bytes_in(self, t0: float, t1: float) -> float:
        """Total bytes attributed to [t0, t1), prorating edge buckets."""
        total = 0.0
        for b, v in self._buckets.items():
            lo, hi = b * self.bucket, (b + 1) * self.bucket
            overlap = min(hi, t1) - max(lo, t0)
            if overlap > 0:
                total += v * overlap / self.bucket
        return total


class BandwidthPipe:
    """A FIFO bandwidth-limited channel with a per-transfer setup latency
    (:data:`PCIE_LATENCY`).

    ``transfer`` is a process generator: ``yield from pipe.transfer(n)``
    blocks the calling process for queueing + service time and records the
    service interval in :attr:`ledger` (``bucket``-second buckets).
    """

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        name: str = "pipe",
        bucket: float = 1.0,
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.bandwidth = bandwidth
        self.latency = PCIE_LATENCY
        self.ledger = TrafficLedger(bucket)
        self.name = name
        # Probe names, built once: the fault site / span, the burst span
        # and the per-direction telemetry channels.
        self._site = f"{name}.transfer"
        self._burst_span = f"{name}.transfer_burst"
        self._channels = {"tx": f"{name}.tx_bytes", "rx": f"{name}.rx_bytes"}
        self._res = Resource(env)

    def service_time(self, nbytes: float) -> float:
        return self.latency + nbytes / self.bandwidth

    def transfer(self, nbytes: float, direction: str = "tx") -> Generator:
        """Move ``nbytes`` through the pipe (blocking process generator).

        ``direction`` is accounting-only ("tx" = host->device, "rx" =
        device->host); the pipe itself is symmetric, but telemetry keeps
        per-direction byte channels the way PCM reports the link.  Single
        transfers keep this scalar path beside :meth:`transfer_burst`:
        sending them through the burst path measured ~10 % slower on a
        scan-heavy cell, which issues one small transfer per command.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if direction not in self._channels:
            raise ValueError(f"direction must be tx or rx, not {direction!r}")
        p = self.env.probes
        _sp = p.begin("pcie", self._site, None,
                      {"bytes": nbytes, "dir": direction})
        # Fault site: e.g. "pcie.transfer" (modeled transfer drop/delay).
        # DELAY is folded into the service interval below — the slowed
        # transfer holds the link and the ledger and telemetry
        # attribute its bytes across the stretched window, instead of
        # the extra latency vanishing between samples.
        action = p.touch(self._site)
        injected_delay = (action.delay if action is not None
                          and action.kind == DELAY else 0.0)
        with self._res.request() as req:
            p.enter("queue")
            try:
                yield req
            finally:
                p.leave()
            t0 = self.env.now
            dt = self.service_time(nbytes) + injected_delay
            p.enter("pcie")
            try:
                yield self.env.timeout(dt)
            finally:
                p.leave()
            self.ledger.record(t0, self.env.now, nbytes)
            p.add(self._channels[direction], nbytes)
        p.end(_sp)

    def transfer_burst(self, sizes, direction: str = "tx") -> Generator:
        """Move a sequence of transfers as macro events (one scheduled
        kernel event per group of up to :data:`MACRO_MAX` chunks).

        Semantics match a back-to-back sequence of :meth:`transfer` calls:
        every chunk still hits its fault probe, is recorded individually in
        the ledger over the exact sub-interval it occupied the pipe, and is
        reported to telemetry — only the kernel-event count changes.  The
        pipe is released between groups whenever other requesters are
        queued, preserving FIFO fairness at group granularity.
        """
        if not sizes:
            return
        if len(sizes) == 1:
            yield from self.transfer(sizes[0], direction)
            return
        if direction not in self._channels:
            raise ValueError(f"direction must be tx or rx, not {direction!r}")
        for nbytes in sizes:
            if nbytes < 0:
                raise ValueError("nbytes must be >= 0")
        env = self.env
        p = env.probes
        _sp = p.begin("pcie", self._burst_span, None,
                      {"bytes": sum(sizes), "chunks": len(sizes),
                       "dir": direction})
        macro = env.macro
        macro.bursts += 1
        macro.ops += len(sizes)
        i = 0
        n = len(sizes)
        while i < n:
            group = sizes[i:i + MACRO_MAX]
            i += len(group)
            # Per-chunk service times, fault delays folded in (same site
            # and DELAY semantics as the scalar path).
            dts = []
            for nbytes in group:
                action = p.touch(self._site)
                injected = (action.delay if action is not None
                            and action.kind == DELAY else 0.0)
                dts.append(self.service_time(nbytes) + injected)
            with self._res.request() as req:
                p.enter("queue")
                try:
                    yield req
                finally:
                    p.leave()
                t0 = env.now
                total_dt = 0.0
                for dt in dts:
                    total_dt += dt
                p.enter("pcie")
                try:
                    yield env.timeout(total_dt)
                finally:
                    p.leave()
                macro.events += 1
                # Per-chunk attribution over the exact sub-interval each
                # chunk held the pipe within the macro event.
                a = t0
                for nbytes, dt in zip(group, dts):
                    b = a + dt
                    self.ledger.record(a, b, nbytes)
                    a = b
                p.add(self._channels[direction], sum(group))
        p.end(_sp)


class PcieLink(BandwidthPipe):
    """The host<->device PCIe link.

    Defaults to PCIe Gen2 x8 (4 GB/s theoretical, as in the paper's setup).
    All host-visible transfers — block reads/writes, NVMe-KV command
    payloads, bulk-scan DMA — go through here, so its ledger is exactly what
    Intel PCM measured in the paper.
    """

    GEN2_X8 = 4 * 1024**3  # bytes/s

    def __init__(
        self,
        env: Environment,
        bandwidth: float = GEN2_X8,
        bucket: float = 1.0,
    ):
        super().__init__(
            env,
            bandwidth=bandwidth,
            name="pcie",
            bucket=bucket,
        )
        tel = env.telemetry
        if tel is not None:
            # Pre-declare both directions so an idle link still exports
            # zero-valued series (the zero-traffic health rule reads them).
            tel.rate("pcie.tx_bytes")
            tel.rate("pcie.rx_bytes")
