"""Ablation D3 — detector polling period.

The paper fixes the Detector at 0.1 s.  This ablation sweeps the period:
too slow a detector misses stall windows (fewer redirected writes, lower
throughput); an overly fast one buys little beyond the 0.1 s default.
"""

import copy

from repro.bench.runner import RunSpec, run_workload


def _with_detector_period(profile, factor):
    prof = copy.deepcopy(profile)
    prof.detector.period = profile.detector.period * factor
    return prof


def test_abl_detector_period(benchmark, repro_profile):
    def sweep():
        out = {}
        for factor in (0.5, 1.0, 10.0, 40.0):
            prof = _with_detector_period(repro_profile, factor)
            r = run_workload(
                RunSpec("kvaccel", "A", 1, rollback="disabled"), prof)
            out[factor] = r
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\nAblation D3 — detector period vs redirection effectiveness")
    for factor, r in results.items():
        print(f"  period x{factor:<5g} thr={r.write_throughput_ops/1000:6.1f} Kops/s "
              f"redirected={r.extra['redirected_writes']:7d} "
              f"stall_time={r.total_stall_time:.3f}s")

    # A slower detector reacts late on both edges, so hard-stall time
    # grows monotonically with the period.
    assert results[40.0].total_stall_time >= results[0.5].total_stall_time
    # Throughput degrades (or at best holds) as the detector slows down.
    assert (results[40.0].write_throughput_ops
            <= results[0.5].write_throughput_ops * 1.02)
    # The paper's 0.1 s period performs within noise of a 2x-faster one.
    assert (results[1.0].write_throughput_ops
            >= results[0.5].write_throughput_ops * 0.75)
