"""CPU busy-time model for host cores and the device ARM core.

The paper's efficiency metric (Eq. 1) is throughput / average host CPU
utilisation, and ADOC's main cost is extra compaction threads burning host
CPU.  We therefore model CPUs as busy-time accounting with a simple
processor-sharing slowdown when more threads want CPU than cores exist.

``consume`` is a process generator: the calling simulated thread blocks for
the (possibly stretched) duration and the busy seconds land in a per-second
ledger so CPU% can be reported for any window.
"""

from __future__ import annotations

from typing import Generator, Iterable

from ..sim import Environment
from .pcie import TrafficLedger

__all__ = ["CpuModel"]


class CpuModel:
    """N-core CPU with per-second busy-time accounting."""

    def __init__(self, env: Environment, cores: int = 8, name: str = "cpu"):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.env = env
        self.cores = cores
        self.name = name
        self.ledger = TrafficLedger(bucket=1.0)  # "bytes" = busy core-seconds
        self.busy_by_tag: dict[str, float] = {}
        self._active = 0

    def consume(self, seconds: float, tag: str = "anon") -> Generator:
        """Burn ``seconds`` of CPU time on one core (process generator).

        If more threads are runnable than cores, wall time stretches by the
        oversubscription factor at entry (processor-sharing approximation);
        busy core-seconds recorded stay at ``seconds``.
        """
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        if seconds == 0:
            return
        self._active += 1
        stretch = max(1.0, self._active / self.cores)
        t0 = self.env.now
        p = self.env.probes
        p.enter("cpu")
        try:
            yield self.env.timeout(seconds * stretch)
        finally:
            p.leave()
            self._active -= 1
            self.ledger.record(t0, self.env.now, seconds)
            self.busy_by_tag[tag] = self.busy_by_tag.get(tag, 0.0) + seconds

    def charge(self, seconds: float, tag: str = "anon") -> None:
        """Record busy time without blocking (for sub-microsecond costs).

        Used for very small costs (Table VI metadata ops) where scheduling
        an event per call would swamp the kernel; the time is accounted as
        if it happened instantaneously at ``env.now``.
        """
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        # ``ledger.record(now, now, seconds)``, written out: called once
        # per simulated Next()/metadata op, it is the ledger's hottest use.
        ledger = self.ledger
        ledger.total_bytes += seconds
        if seconds:
            b = int(self.env.now / ledger.bucket)
            ledger._buckets[b] = ledger._buckets.get(b, 0.0) + seconds
        self.busy_by_tag[tag] = self.busy_by_tag.get(tag, 0.0) + seconds

    def charge_all(self, costs: Iterable[float], tag: str = "anon") -> None:
        """``charge(seconds, tag)`` for each of ``costs`` in order, in one
        call: a batch's per-key costs (Table VI metadata ops, the Dev-LSM's
        per-put ARM op).  Each cost is added to the same float accumulators
        one at a time, as that loop would add it, never as ``n * cost``,
        so every total is bit-identical to per-key charging.  ``charge``
        stays the one-cost form: the read path charges once a Next
        (44K calls a ``scan_kvaccel`` cell), where a one-element batch
        would cost a call and a loop more."""
        ledger = self.ledger
        buckets = ledger._buckets
        b = int(self.env.now / ledger.bucket)
        total = ledger.total_bytes
        busy = self.busy_by_tag.get(tag, 0.0)
        in_bucket = buckets.get(b, 0.0)
        charged = False
        try:
            for seconds in costs:
                if seconds < 0:
                    raise ValueError("seconds must be >= 0")
                total += seconds
                busy += seconds
                in_bucket += seconds    # a zero cost leaves it as it is
                charged = True
        finally:
            # As far as the loop got: where per-key charging stops at an
            # invalid cost.
            if charged:
                ledger.total_bytes = total
                self.busy_by_tag[tag] = busy
                if in_bucket or b in buckets:   # zero costs open no bucket
                    buckets[b] = in_bucket

    @property
    def total_busy(self) -> float:
        return self.ledger.total_bytes

    def utilization(self, t0: float, t1: float) -> float:
        """Average CPU utilisation (0..1) over [t0, t1)."""
        if t1 <= t0:
            raise ValueError("need t1 > t0")
        return self.ledger.bytes_in(t0, t1) / (self.cores * (t1 - t0))
