"""The package runs on the standard library alone.

A fresh interpreter that cannot import numpy imports every module of
``repro``, runs a small workload-C cell whose reads fill SSTable bloom
filters, and calls the Fig 4/5/14 PCIe analysis and the Fig 11 floor.  Every
top-level module those steps load must be ``repro`` or part of the standard
library.  The snapshot of ``sys.modules`` is taken after start-up, because
``.pth`` files may import third-party modules before any of this runs.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r'''
import importlib, importlib.abc, pkgutil, sys

class NoNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"blocked: {name}")
        return None

sys.meta_path.insert(0, NoNumpy())
before = set(sys.modules)

import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)

from repro.bench import RunSpec, run_workload
from repro.bench.experiments.exp_fig11_kvaccel_timeseries import (
    _low_decile_kops)
from repro.bench.profiles import get_profile
from repro.lsm import BloomFilter
from repro.metrics import (analyze_stall_pcie, utilization_cdf,
                           zero_traffic_buckets)

fills = []
add_all = BloomFilter.add_all
def counting_add_all(self, keys):
    add_all(self, keys)
    fills.append(self.num_added)
BloomFilter.add_all = counting_add_all

profile = get_profile("mini256")
spec = RunSpec("kvaccel", "C", 1, rollback="lazy",
               duration=profile.duration * 0.1)
result = run_workload(spec, profile)
assert result.read_ops > 0 and fills and min(fills) > 0, (result.read_ops,
                                                          len(fills))

stats = analyze_stall_pcie([1.0, 2.0, 3.0], [0.0, 95.0, 50.0],
                           [(0.5, 2.5)], capacity=100.0)
assert (stats.stall_buckets, stats.zero_buckets,
        stats.above_90_buckets) == (3, 1, 1), stats
assert utilization_cdf(stats.utilizations)[1][-1] == 1.0
assert zero_traffic_buckets([1.0, 2.0], [0.0, 4096.0], [(0.5, 2.5)]) == 1
result.extra["sample_period"] = 1.0
assert _low_decile_kops(result) >= 0.0

loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
main = sys.modules["__main__"]     # multiprocessing aliases it
foreign = sorted(name for name in loaded
                 if name != "repro" and name not in sys.stdlib_module_names
                 and sys.modules[name] is not main)
assert not foreign, foreign
print("stdlib-only", len(fills))
'''


def test_repro_imports_and_runs_without_numpy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run([sys.executable, "-c", CHILD], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("stdlib-only")
