"""Periodic sampling utilities.

The paper reports 1-second time series (throughput, PCIe traffic via Intel
PCM).  :class:`PeriodicSampler` is the simulation-side equivalent: a process
that wakes every ``period`` simulated seconds and appends the value of a
callback to a series.
"""

from __future__ import annotations

from typing import Callable, Optional

from .core import Environment, Process

__all__ = ["PeriodicSampler"]


class PeriodicSampler:
    """Samples ``fn()`` every ``period`` sim-seconds into ``times``/``values``."""

    def __init__(
        self,
        env: Environment,
        fn: Callable[[], float],
        period: float = 1.0,
        name: Optional[str] = None,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        self.env = env
        self.fn = fn
        self.period = period
        self.times: list[float] = []
        self.values: list[float] = []
        self._t_start = env.now
        self._stopped = False
        self.process: Process = env.process(self._run(), name=name or "sampler")

    def stop(self) -> None:
        """Stop sampling; the final partial bucket is dropped, because
        series consumers (e.g. the fig11 low-decile floor metric) expect
        only whole-period buckets.  :meth:`flush` records it instead."""
        self._stopped = True

    def flush(self) -> bool:
        """Record the partial bucket since the last tick, if any.

        Returns True if a sample was appended.  A no-op when the clock sits
        exactly on the last recorded tick, so flushing is idempotent.
        """
        last = self.times[-1] if self.times else self._t_start
        if self.env.now > last:
            self.times.append(self.env.now)
            self.values.append(self.fn())
            return True
        return False

    def _run(self):
        while not self._stopped:
            yield self.env.timeout(self.period)
            if self._stopped:
                break
            self.times.append(self.env.now)
            self.values.append(self.fn())
