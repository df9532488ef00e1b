"""Ablation — in-device Dev-LSM compaction on/off.

The paper disables Dev-LSM compaction for workload A ("for a write-only
workload phase, a lazy rollback scheme that performs rollback after the
workload completes is the most sensible option", and compaction in the
device buys nothing before a wholesale reset).  This ablation verifies the
choice: device compaction burns ARM cycles and NAND bandwidth without
helping a buffer that will be bulk-scanned and reset anyway — but it
*does* help point reads that hit the Dev-LSM, by collapsing runs.
"""

import copy

from repro.bench.runner import RunSpec, run_workload


def _with_device_compaction(profile, enabled):
    prof = copy.deepcopy(profile)
    prof.ssd.devlsm.compaction_enabled = enabled
    return prof


def test_abl_device_compaction(benchmark, repro_profile):
    def sweep():
        out = {}
        for enabled in (False, True):
            prof = _with_device_compaction(repro_profile, enabled)
            out[enabled] = {
                "A": run_workload(
                    RunSpec("kvaccel", "A", 1, rollback="disabled"), prof),
                "C": run_workload(
                    RunSpec("kvaccel", "C", 1, rollback="disabled"), prof),
            }
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\nAblation — Dev-LSM compaction for the write buffer")
    for enabled, cells in results.items():
        a, c = cells["A"], cells["C"]
        print(f"  compaction={'on ' if enabled else 'off'} "
              f"A-writes={a.write_throughput_ops/1000:6.1f}K  "
              f"C-writes={c.write_throughput_ops/1000:6.1f}K "
              f"C-reads={c.read_throughput_ops/1000:5.2f}K")

    # Paper's choice for write-only workloads: compaction off is at least
    # as fast (the buffer is write-once, scan-once).
    assert (results[False]["A"].write_throughput_ops
            >= results[True]["A"].write_throughput_ops * 0.9)
