"""KVACCEL reproduction: a dual-interface-SSD write accelerator for
LSM-tree key-value stores, rebuilt as a discrete-event simulation.

Reproduces "KVACCEL: A Novel Write Accelerator for LSM-Tree-Based KV Stores
with Host-SSD Collaboration" (IPPS 2025).  See DESIGN.md for the system
inventory and EXPERIMENTS.md for paper-vs-measured results.

Quick tour of the public API::

    from repro import Environment, CpuModel, HybridSsd, KvaccelDb, LsmOptions

    env = Environment()
    cpu = CpuModel(env, cores=8)
    ssd = HybridSsd(env, cpu)
    db = KvaccelDb(env, LsmOptions(), ssd, cpu)

    def workload():
        yield from db.put(b"key1", b"value1")
        value = yield from db.get(b"key1")

    env.run(until=env.process(workload()))

Subpackages: ``repro.sim`` (DES kernel), ``repro.device`` (hybrid SSD),
``repro.lsm`` (host LSM engine), ``repro.adoc`` (ADOC baseline),
``repro.core`` (KVACCEL), ``repro.workload`` (db_bench-style drivers),
``repro.metrics`` and ``repro.bench`` (experiment harness).
"""

from .adoc import AdocDb, AdocTunerConfig
from .core import (
    DetectorConfig,
    KvaccelController,
    KvaccelDb,
    MetadataManager,
    RollbackConfig,
    WriteStallDetector,
    range_query,
)
from .device import CpuModel, HybridSsd, HybridSsdConfig, NandGeometry, PcieLink
from .lsm import DbImpl, LsmOptions
from .metrics import LatencyHistogram, RunCollector, RunResult, efficiency
from .sim import Environment
from .types import KIND_DELETE, KIND_PUT, ValueRef, encode_key, make_entry

__version__ = "1.0.0"

__all__ = [
    "AdocDb",
    "AdocTunerConfig",
    "DetectorConfig",
    "KvaccelController",
    "KvaccelDb",
    "MetadataManager",
    "RollbackConfig",
    "WriteStallDetector",
    "range_query",
    "CpuModel",
    "HybridSsd",
    "HybridSsdConfig",
    "NandGeometry",
    "PcieLink",
    "DbImpl",
    "LsmOptions",
    "LatencyHistogram",
    "RunCollector",
    "RunResult",
    "efficiency",
    "Environment",
    "KIND_DELETE",
    "KIND_PUT",
    "ValueRef",
    "encode_key",
    "make_entry",
    "__version__",
]
