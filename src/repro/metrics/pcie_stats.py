"""PCIe-bandwidth analysis during write stalls (Figs 4, 5, 14).

Given the PCIe :class:`~repro.device.TrafficLedger` series and the write
controller's stall intervals, these functions compute:

* the per-bucket utilisation series with stall-region annotation (Fig 4);
* the CDF of PCIe utilisation over stall buckets (Fig 5);
* zero-traffic interval counts inside stalls (Fig 14's 45 % reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
                       stall_intervals: Sequence[tuple]) -> np.ndarray:
    """Boolean mask: bucket i (ending at times[i]) overlaps a stall.

    Both inputs may be empty — a run that never stalls (any healthy
    KVACCEL cell) yields an all-False mask, never an error.
    """
    t = np.asarray(times, dtype=float)
    mask = np.zeros(len(t), dtype=bool)
    if len(t) == 0 or len(stall_intervals) == 0:
        return mask
    starts = t - bucket
    for s0, s1 in stall_intervals:
        if s1 < s0:
            raise ValueError(f"stall interval ends before it starts: "
                             f"({s0}, {s1})")
        mask |= (starts < s1) & (t > s0)
    return mask


def _check_series(times: Sequence[float], traffic: Sequence[float]) -> None:
    if len(times) != len(traffic):
        raise ValueError(f"times and traffic length mismatch: "
                         f"{len(times)} vs {len(traffic)}")


def analyze_stall_pcie(times: Sequence[float], traffic: Sequence[float],
                       stall_intervals: Sequence[tuple], capacity: float,
                       bucket: float = 1.0) -> StallPcieStats:
    """Classify stall-period buckets by link utilisation.

    ``capacity`` is the relevant peak bandwidth in bytes per bucket-second
    (the paper normalizes by the device's ~630 MB/s, not the PCIe ceiling).
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    _check_series(times, traffic)
    mask = _stall_bucket_mask(times, bucket, stall_intervals)
    vals = np.asarray(traffic, dtype=float)[mask] / (capacity * bucket)
    zero = int(np.sum(vals <= ZERO_UTILIZATION))
    hi = int(np.sum(vals >= 0.9))
    return StallPcieStats(
        stall_buckets=int(mask.sum()),
        zero_buckets=zero,
        above_90_buckets=hi,
        utilizations=vals.tolist(),
    )


def utilization_cdf(utilizations: Sequence[float]) -> tuple[list, list]:
    """(x, F(x)) for utilisation in [0, 1] — the Fig 5 curve."""
    xs = np.linspace(0.0, 1.0, CDF_POINTS)
    if len(utilizations) == 0:
        return xs.tolist(), [0.0] * CDF_POINTS
    vals = np.sort(np.asarray(utilizations, dtype=float))
    cdf = np.searchsorted(vals, xs, side="right") / len(vals)
    return xs.tolist(), cdf.tolist()


def zero_traffic_buckets(times: Sequence[float], traffic: Sequence[float],
                         stall_intervals: Sequence[tuple],
                         bucket: float = 1.0) -> int:
    """Count stall-period buckets with (near-)zero link traffic."""
    _check_series(times, traffic)
    mask = _stall_bucket_mask(times, bucket, stall_intervals)
    vals = np.asarray(traffic, dtype=float)[mask]
    return int(np.sum(vals <= ZERO_TRAFFIC_BYTES))
