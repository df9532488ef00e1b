"""Extension experiment — single hybrid device vs two separate devices.

Paper Section V-D (last paragraph): the two interfaces can also live on
*separate* devices.  On one device, redirected KV writes share NAND
bandwidth with Main-LSM flush/compaction; on two devices they do not.
This bench quantifies that contention by running the same workload-A
redirect scenario against both deployments.
"""

import copy

from repro.bench.profiles import HOST_CORES
from repro.bench.runner import RunSpec, run_workload
from repro.core import KvaccelDb
from repro.device import CpuModel, MultiDeviceSetup
from repro.metrics import RunCollector
from repro.sim import Environment
from repro.workload import DriverConfig, FillRandomDriver


def _run_multi_device(profile):
    """Mirror run_workload's fillrandom path on a MultiDeviceSetup."""
    env = Environment()
    cpu = CpuModel(env, cores=HOST_CORES, name="host")
    setup = MultiDeviceSetup(env, cpu,
                             copy.deepcopy(profile.ssd),
                             copy.deepcopy(profile.ssd))
    opts = copy.deepcopy(profile.options)
    opts.slowdown_enabled = False
    db = KvaccelDb(env, opts, setup, cpu,
                   rollback="disabled",
                   detector_config=copy.deepcopy(profile.detector),
                   page_cache_bytes=profile.page_cache_bytes)
    cfg = DriverConfig(duration=profile.duration,
                       key_space=profile.key_space)
    driver = FillRandomDriver(env, db, cfg)
    collector = RunCollector(env, "KVAccel(1) two-device", driver,
                             sample_period=profile.sample_period)
    collector.attach_db_stats(db.stats)
    env.run(until=driver.start())
    collector.stop()
    result = collector.result([(db, setup, cpu)])
    result.extra["redirected_writes"] = db.controller.redirected_writes
    db.close()
    return result


def test_abl_multi_device(benchmark, repro_profile):
    def sweep():
        single = run_workload(
            RunSpec("kvaccel", "A", 1, rollback="disabled"), repro_profile)
        multi = _run_multi_device(repro_profile)
        return single, multi

    single, multi = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\nExtension — single hybrid SSD vs two-device deployment")
    for label, r in [("single device", single), ("two devices", multi)]:
        print(f"  {label:14s} thr={r.write_throughput_ops/1000:6.1f} Kops/s "
              f"redirected={r.extra['redirected_writes']:7d}")

    # Both deployments must function and redirect.
    assert single.extra["redirected_writes"] > 0
    assert multi.extra["redirected_writes"] > 0
    # Removing NAND contention can only help (allow 5% noise).
    assert multi.write_throughput_ops >= single.write_throughput_ops * 0.95
