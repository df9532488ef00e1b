"""PCIe-bandwidth analysis during write stalls (Figs 4, 5, 14).

Given the PCIe :class:`~repro.device.TrafficLedger` series and the write
controller's stall intervals, these functions compute:

* the per-bucket utilisation series with stall-region annotation (Fig 4);
* the CDF of PCIe utilisation over stall buckets (Fig 5);
* zero-traffic interval counts inside stalls (Fig 14's 45 % reduction).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Sequence

__all__ = ["StallPcieStats", "analyze_stall_pcie", "utilization_cdf",
           "zero_traffic_buckets"]

# A stall bucket at or below this utilisation counts as link-idle (Fig 4/5).
ZERO_UTILIZATION = 0.005
# A stall bucket carrying at most this many bytes counts as zero-traffic
# (Fig 14).
ZERO_TRAFFIC_BYTES = 1024.0
# Sample points of the Fig 5 utilisation CDF over [0, 1].
CDF_POINTS = 101


@dataclass
class StallPcieStats:
    """Summary of link behaviour during stall periods."""

    stall_buckets: int
    zero_buckets: int
    above_90_buckets: int
    utilizations: list  # per stall-bucket utilisation in [0, 1]

    @property
    def zero_fraction(self) -> float:
        return self.zero_buckets / self.stall_buckets if self.stall_buckets else 0.0

    @property
    def above_90_fraction(self) -> float:
        return self.above_90_buckets / self.stall_buckets if self.stall_buckets else 0.0


def _stall_bucket_mask(times: Sequence[float], bucket: float,
                       stall_intervals: Sequence[tuple]) -> list:
    """Bucket i (ending at times[i]) overlaps a stall ``(s0, s1)`` when
    ``t - bucket < s1 and t > s0``: one bool per bucket.

    Both inputs may be empty — a run that never stalls (any healthy
    KVACCEL cell) yields an all-False mask, never an error.
    """
    if len(times) == 0 or len(stall_intervals) == 0:
        return [False] * len(times)
    for s0, s1 in stall_intervals:
        if s1 < s0:
            raise ValueError(f"stall interval ends before it starts: "
                             f"({s0}, {s1})")
    # The stalls that start before t overlap bucket t iff the latest end
    # among them is after t - bucket.
    ordered = sorted(stall_intervals)
    starts = [float(s0) for s0, _s1 in ordered]
    reach = list(accumulate((float(s1) for _s0, s1 in ordered), max))
    mask = []
    for t in map(float, times):
        begun = bisect_left(starts, t)
        mask.append(begun > 0 and t - bucket < reach[begun - 1])
    return mask


def _check_series(times: Sequence[float], traffic: Sequence[float]) -> None:
    if len(times) != len(traffic):
        raise ValueError(f"times and traffic length mismatch: "
                         f"{len(times)} vs {len(traffic)}")


def _stall_traffic(times: Sequence[float], traffic: Sequence[float],
                   stall_intervals: Sequence[tuple],
                   bucket: float) -> list:
    """The traffic of the buckets that overlap a stall, as floats."""
    _check_series(times, traffic)
    mask = _stall_bucket_mask(times, bucket, stall_intervals)
    return list(map(float, compress(traffic, mask)))


def analyze_stall_pcie(times: Sequence[float], traffic: Sequence[float],
                       stall_intervals: Sequence[tuple], capacity: float,
                       bucket: float = 1.0) -> StallPcieStats:
    """Classify stall-period buckets by link utilisation.

    ``capacity`` is the relevant peak bandwidth in bytes per bucket-second
    (the paper normalizes by the device's ~630 MB/s, not the PCIe ceiling).
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    scale = float(capacity * bucket)
    vals = [x / scale for x in _stall_traffic(times, traffic,
                                               stall_intervals, bucket)]
    return StallPcieStats(
        stall_buckets=len(vals),
        zero_buckets=sum(v <= ZERO_UTILIZATION for v in vals),
        above_90_buckets=sum(v >= 0.9 for v in vals),
        utilizations=vals,
    )


def utilization_cdf(utilizations: Sequence[float]) -> tuple[list, list]:
    """(x, F(x)) for utilisation in [0, 1] — the Fig 5 curve.

    ``x[i]`` is ``i * (1 / (CDF_POINTS - 1))`` (``x[57]`` is
    0.5700000000000001, not 0.57) and the last ``x`` is exactly 1.0;
    ``F(x)`` counts the utilisations ``<= x``.
    """
    step = 1.0 / (CDF_POINTS - 1)
    xs = [i * step for i in range(CDF_POINTS - 1)] + [1.0]
    if len(utilizations) == 0:
        return xs, [0.0] * CDF_POINTS
    vals = sorted(map(float, utilizations))
    return xs, [bisect_right(vals, x) / len(vals) for x in xs]


def zero_traffic_buckets(times: Sequence[float], traffic: Sequence[float],
                         stall_intervals: Sequence[tuple],
                         bucket: float = 1.0) -> int:
    """Count stall-period buckets with (near-)zero link traffic."""
    return sum(x <= ZERO_TRAFFIC_BYTES
               for x in _stall_traffic(times, traffic, stall_intervals,
                                       bucket))
