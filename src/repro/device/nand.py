"""NAND flash array timing model.

The array is the shared backend behind both interfaces of the hybrid SSD.
Service of an I/O of ``n`` bytes takes ``op-latency + n / op-bandwidth``
where the bandwidths derive from geometry (channel/way pipelining) clamped
to a measured device peak (the Cosmos+ peaks at ~630 MB/s, Section III-A).

Requests are served FIFO through a shared channel resource — this is what
makes host flush/compaction I/O and redirected KV writes contend for the
same NAND, a first-order effect for KVACCEL (the KV region shares the NAND
with the block region).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..sim import Environment, PriorityResource, Resource
from .geometry import MiB, NandGeometry
from .pcie import MACRO_MAX

__all__ = ["NandArray"]

# The fault site and span name of each NAND operation, built once.
_OP_NAMES = {op: f"nand.{op}" for op in ("read", "program", "erase")}


class NandArray:
    """Timing front-end for the raw NAND behind the FTL."""

    def __init__(
        self,
        env: Environment,
        geometry: NandGeometry,
        peak_bandwidth: Optional[float] = 630 * MiB,
        priority_scheduling: bool = False,
    ):
        self.env = env
        self.geometry = geometry
        cap = peak_bandwidth if peak_bandwidth else float("inf")
        self.read_bw = min(geometry.peak_read_bw, cap)
        self.program_bw = min(geometry.peak_program_bw, cap)
        # One FIFO lane at full array bandwidth.  The FTL stripes any
        # single request across all channels/ways, so one sequential stream
        # already reaches device peak; concurrency shows up as queueing,
        # which is how a saturated SSD behaves.
        # ``priority_scheduling`` swaps the queue for a priority queue
        # (SILK-style: latency-critical flush/WAL I/O jumps ahead of
        # background compaction I/O).
        self.priority_scheduling = priority_scheduling
        self._res = (PriorityResource(env) if priority_scheduling
                     else Resource(env))
        self.total_bytes = 0.0      # bytes read, programmed and erased
        self.busy_time = 0.0
        # Optional repro.device.error_model.NandErrorModel; None keeps the
        # array perfect and the io() path zero-cost (one attribute read).
        self.error_model = None
        tel = env.telemetry
        if tel is not None:
            # Per-bucket busy seconds; divide by the bucket period for the
            # busy fraction the paper quotes for the Cosmos+ channels.
            tel.deriv("nand.busy_time", lambda: self.busy_time)
        t = geometry.timing
        self._lat_read = t.t_read
        self._lat_program = t.t_program
        self._lat_erase = t.t_erase

    def service_time(self, op: str, nbytes: float) -> float:
        if op == "read":
            return self._lat_read + nbytes / self.read_bw
        if op == "program":
            return self._lat_program + nbytes / self.program_bw
        if op == "erase":
            return self._lat_erase
        raise ValueError(f"unknown NAND op {op!r}")

    def io(self, op: str, nbytes: float, priority: int = 0) -> Generator:
        """Perform a NAND operation (blocking process generator).

        ``priority`` matters only with ``priority_scheduling``: lower
        values are served first (0 = latency-critical, e.g. flush/WAL;
        higher = background, e.g. compaction).  Single operations keep this
        scalar path beside :meth:`io_burst`: sending them through the burst
        path measured ~10 % slower on a scan-heavy cell, whose per-Next page
        reads are one operation each.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        dt = self.service_time(op, nbytes)
        p = self.env.probes
        name = _OP_NAMES[op]
        # Span actor defaults to the calling process, so NAND time nests
        # inside the flush / compaction / Dev-LSM span that issued it.
        _sp = p.begin("nand", name, None,
                      {"bytes": nbytes, "priority": priority})
        yield from p.at(name)
        err = None
        if self.error_model is not None:
            # Wear-driven failures + ECC read-retry latency tails.  The
            # command occupies the media for its (stretched) service time
            # and then completes with the error status, like real NAND.
            extra, err = self.error_model.on_io(op, nbytes)
            dt += extra
        req = (self._res.request(priority=priority) if self.priority_scheduling
               else self._res.request())
        with req:
            p.enter("queue")
            try:
                yield req
            finally:
                p.leave()
            t0 = self.env.now
            p.enter("nand")
            try:
                yield self.env.timeout(dt)
            finally:
                p.leave()
            self.busy_time += dt
            self.total_bytes += nbytes
        if err is not None:
            raise err
        p.end(_sp)

    def io_burst(self, ops) -> Generator:
        """Serve a channel burst of NAND operations as macro events.

        ``ops`` is a sequence of ``(op, nbytes)`` pairs served in order, at
        the default priority.  Groups of up to
        :data:`~repro.device.pcie.MACRO_MAX` operations share one scheduled
        kernel event (one channel grant + one timeout for the summed
        service time); the channel is re-requested between groups so
        concurrent flush/compaction traffic interleaves at group
        granularity, like the scalar FIFO.  Per-op semantics are preserved:
        every op hits its ``nand.<op>`` fault site, counts its bytes once
        its group has held the channel, and consults the error model.  An
        op that errors truncates the burst — it occupies the media for its
        (stretched) service time and then the burst completes with the
        error status, exactly like :meth:`io`.
        """
        if not ops:
            return
        if len(ops) == 1:
            op, nbytes = ops[0]
            yield from self.io(op, nbytes)
            return
        env = self.env
        p = env.probes
        _sp = p.begin("nand", "nand.burst", None,
                      {"ops": len(ops), "bytes": sum(nb for _o, nb in ops),
                       "priority": 0})
        macro = env.macro
        macro.bursts += 1
        err = None
        i = 0
        n = len(ops)
        while i < n and err is None:
            group = ops[i:i + MACRO_MAX]
            i += len(group)
            # Service time and bytes of the ops that occupy the media.
            total_dt = 0.0
            total_bytes = 0
            for op, nbytes in group:
                if nbytes < 0:
                    raise ValueError("nbytes must be >= 0")
                dt = self.service_time(op, nbytes)
                yield from p.at(_OP_NAMES[op])
                if self.error_model is not None:
                    extra, err = self.error_model.on_io(op, nbytes)
                    dt += extra
                total_dt += dt
                total_bytes += nbytes
                macro.ops += 1
                if err is not None:
                    break        # truncate: ops after the failure never ran
            with self._res.request() as req:
                p.enter("queue")
                try:
                    yield req
                finally:
                    p.leave()
                p.enter("nand")
                try:
                    yield env.timeout(total_dt)
                finally:
                    p.leave()
                macro.events += 1
                self.busy_time += total_dt
                self.total_bytes += total_bytes
        if err is not None:
            raise err
        p.end(_sp)
