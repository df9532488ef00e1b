"""Log-bucketed latency histogram (HdrHistogram-style).

Values (microseconds in our usage) are recorded into geometric buckets,
giving bounded memory and O(1) recording with ~2% relative error on
percentile queries — the P99/P99.9 numbers of Figs 3 and 12.
"""

from __future__ import annotations

import math

__all__ = ["LatencyHistogram", "tee"]

# The bottom of the bucketed range; smaller values share the first bucket.
MIN_VALUE = 0.01
# The top of the bucketed range; larger values share the last bucket.
MAX_VALUE = 1e9
# Geometric buckets per factor of ten (~2% relative error).
BUCKETS_PER_DECADE = 48


class LatencyHistogram:
    """Geometric-bucket histogram over positive values."""

    def __init__(self):
        self._ratio = 10 ** (1 / BUCKETS_PER_DECADE)
        self._log_ratio = math.log(self._ratio)
        n = int(math.ceil(math.log(MAX_VALUE / MIN_VALUE)
                          / self._log_ratio)) + 2
        self._counts = [0] * n
        self.total_count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0

    def record(self, value: float, count: int = 1) -> None:
        if value < 0:
            raise ValueError("latency cannot be negative")
        if count < 1:
            raise ValueError("count must be >= 1")
        counts = self._counts
        if value <= MIN_VALUE:
            counts[0] += count
        else:
            i = int(math.log(value / MIN_VALUE) / self._log_ratio) + 1
            counts[min(i, len(counts) - 1)] += count
        self.total_count += count
        self._sum += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError("p must be in [0, 100]")
        if self.total_count == 0:
            return 0.0
        target = max(1, math.ceil(self.total_count * p / 100.0))
        seen = 0
        for i, c in enumerate(self._counts):
            seen += c
            if seen >= target:
                # representative value: geometric midpoint of the bucket,
                # clamped to the recorded range
                if i == 0:
                    value = MIN_VALUE
                else:
                    lo = MIN_VALUE * (self._ratio ** (i - 1))
                    value = lo * math.sqrt(self._ratio)
                return min(max(value, self._min), self._max)
        return self._max

    @property
    def mean(self) -> float:
        return self._sum / self.total_count if self.total_count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.total_count else 0.0

    @property
    def max(self) -> float:
        return self._max

    def merge(self, other: "LatencyHistogram") -> None:
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        self.total_count += other.total_count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def summary(self) -> dict:
        return {
            "count": self.total_count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "p99.9": self.percentile(99.9),
        }


class _Tee:
    """Fan one ``record`` stream into several histograms.

    Recording is pure Python with no Environment interaction, so teeing
    never perturbs a trajectory.
    """

    __slots__ = ("sinks",)

    def __init__(self, *sinks):
        self.sinks = sinks

    def record(self, value: float, count: int = 1) -> None:
        for s in self.sinks:
            s.record(value, count)


def tee(sink, hist):
    """``sink`` with ``hist`` added as one more recipient (``hist`` alone
    when there is no sink yet)."""
    return hist if sink is None else _Tee(sink, hist)
