"""Reference of ``LatencyHistogram.record``: the clamp-then-bucket form.

``reference_record`` clamps a value to ``MIN_VALUE`` with ``max``, finds
its bucket in a helper of its own and updates the range with ``min`` and
``max``.  ``repro.metrics.LatencyHistogram.record`` buckets the value in
place instead; the tests record the same values into two histograms, one
through each, and require the counts and the summary to agree.
"""

from __future__ import annotations

import math

from repro.metrics import histogram


def reference_bucket(hist, value: float) -> int:
    if value <= histogram.MIN_VALUE:
        return 0
    idx = int(math.log(value / histogram.MIN_VALUE) / hist._log_ratio) + 1
    return min(idx, len(hist._counts) - 1)


def reference_record(hist, value: float, count: int = 1) -> None:
    """Record ``value`` ``count`` times into ``hist``."""
    if value < 0:
        raise ValueError("latency cannot be negative")
    if count < 1:
        raise ValueError("count must be >= 1")
    v = max(value, histogram.MIN_VALUE)
    hist._counts[reference_bucket(hist, v)] += count
    hist.total_count += count
    hist._sum += value * count
    hist._min = min(hist._min, value)
    hist._max = max(hist._max, value)
