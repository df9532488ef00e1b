"""Exact values of the PCIe stall analysis and of the Fig 11 floor.

These functions were once array code; the literals below are what that
code computed, so the plain-Python versions must reproduce them bit for
bit: the CDF's x grid, how ties count, which thresholds are inclusive and
where a stall stops marking buckets.
"""

from types import SimpleNamespace

from repro.bench.experiments.exp_fig11_kvaccel_timeseries import (
    _low_decile_kops,
)
from repro.metrics.pcie_stats import (
    CDF_POINTS,
    ZERO_TRAFFIC_BYTES,
    ZERO_UTILIZATION,
    analyze_stall_pcie,
    utilization_cdf,
    zero_traffic_buckets,
)

CAP = 100.0  # bytes per bucket-second: utilisation is traffic / 100
ALL_STALLED = [(0.0, 10.0)]


def test_cdf_x_steps_by_a_hundredth_and_ends_at_exactly_one():
    xs, _cdf = utilization_cdf([0.5])
    assert len(xs) == CDF_POINTS == 101
    assert xs == [i * 0.01 for i in range(100)] + [1.0]
    # The grid is i * step, not the decimal i / 100.
    assert xs[57] == 0.5700000000000001 != 0.57
    assert xs[70] == 0.7000000000000001 != 0.7
    assert xs[-1] == 1.0
    assert all(type(x) is float for x in xs)


def test_cdf_counts_utilisations_at_or_below_x():
    _xs, cdf = utilization_cdf([0.5, 0.5, 0.25])
    assert (cdf[24], cdf[25], cdf[49], cdf[50], cdf[100]) == (
        0.0, 1 / 3, 1 / 3, 1.0, 1.0)
    _xs, cdf = utilization_cdf([0.7])
    assert (cdf[69], cdf[70]) == (0.0, 1.0)     # x[70] is just above 0.7


def test_cdf_of_nothing_is_zero():
    xs, cdf = utilization_cdf([])
    assert cdf == [0.0] * CDF_POINTS and xs[-1] == 1.0


def test_utilisation_thresholds_are_inclusive():
    stats = analyze_stall_pcie([1.0, 2.0, 3.0, 4.0], [0.5, 90.0, 0.51, 89.99],
                               ALL_STALLED, CAP)
    assert stats.utilizations == [0.005, 0.9, 0.0051, 0.8998999999999999]
    assert stats.utilizations[0] == ZERO_UTILIZATION
    assert (stats.stall_buckets, stats.zero_buckets,
            stats.above_90_buckets) == (4, 1, 1)


def test_zero_traffic_threshold_is_inclusive():
    assert zero_traffic_buckets([1.0, 2.0, 3.0],
                                [ZERO_TRAFFIC_BYTES, 1024.0001, 0.0],
                                ALL_STALLED) == 2


def test_a_stall_ending_where_a_bucket_starts_does_not_mark_it():
    times, traffic = [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]
    # Bucket 2 spans (1, 2]: the stall ends at its start.
    assert analyze_stall_pcie(times, traffic, [(0.2, 1.0)],
                              CAP).stall_buckets == 1
    assert zero_traffic_buckets(times, traffic, [(0.2, 1.0)]) == 1
    # A stall starting where bucket 2 ends marks neither bucket 2 nor 3.
    assert analyze_stall_pcie(times, traffic, [(2.0, 2.0)],
                              CAP).stall_buckets == 0


def test_overlapping_and_unsorted_stalls_mark_each_bucket_once():
    times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    traffic = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    stalls = [(4.5, 4.6), (0.5, 2.5), (1.0, 1.5)]
    stats = analyze_stall_pcie(times, traffic, stalls, CAP)
    assert stats.utilizations == [0.1, 0.2, 0.3, 0.5]


def _series(ops, period=0.5):
    return SimpleNamespace(write_ops_series=ops,
                           extra={"sample_period": period})


def test_low_decile_floor_skips_the_warm_up_tenth():
    # 30 buckets: the first 3 are warm-up, and the floor is the mean of the
    # lowest 2 of the other 27 (250 and 300 ops per 0.5 s).
    ops = [900, 100, 50] + [1000 + 37 * i for i in range(27)]
    ops[10], ops[20] = 300, 250
    assert _low_decile_kops(_series(ops)) == 0.55


def test_low_decile_floor_of_an_unsorted_series():
    ops = [7, 3, 11, 5, 2, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
           61, 67, 71, 73, 79, 83, 89, 97]
    assert _low_decile_kops(_series(ops)) == 0.007
    assert _low_decile_kops(_series([4000], period=1.0)) == 4.0


def test_low_decile_floor_is_the_exactly_rounded_mean():
    # Nine buckets in the floor: adding them left to right gives
    # 2.757777777777777, one unit in the last place below the array mean.
    ops = [(i * 137) % 5000 + 1 for i in range(100)]
    assert _low_decile_kops(_series(ops, period=0.1)) == 2.7577777777777777
