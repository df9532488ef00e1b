"""KvaccelDb — the assembled KVACCEL system (paper Fig 7).

One facade wiring together:

* a **Main-LSM** (:class:`~repro.lsm.DbImpl`) on the hybrid SSD's block
  interface — with RocksDB's slowdown disabled, because KVACCEL "does not
  employ any slowdown mechanisms to avoid a write stall" (Section VI-B);
* the **Dev-LSM** behind the same SSD's key-value interface;
* the **Detector**, **Controller**, **Metadata Manager** and **Rollback
  Manager** software modules.

The public surface mirrors a KV store: ``put``/``get``/``delete``/
``put_batch``/``scan`` plus lifecycle and introspection helpers.  All data
operations are process generators (drive with ``yield from``).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..device.cpu import CpuModel
from ..device.hybrid import HybridSsd
from ..lsm.db import DbImpl
from ..lsm.options import LsmOptions
from ..resil import DegradationManager, ResilienceConfig, RetryExecutor
from ..sim import Environment
from .controller import KvaccelController
from .detector import DetectorConfig, WriteStallDetector
from .metadata import MetadataManager
from .range_query import range_query
from .rollback import RollbackConfig, RollbackManager

__all__ = ["KvaccelDb"]


class KvaccelDb:
    """The full KVACCEL stack over one hybrid dual-interface SSD."""

    def __init__(
        self,
        env: Environment,
        options: LsmOptions,
        ssd: HybridSsd,
        host_cpu: CpuModel,
        name: str = "kvaccel",
        rollback: str | RollbackConfig = "eager",
        detector_config: Optional[DetectorConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
        **db_kw,
    ):
        self.env = env
        self.ssd = ssd
        self.host_cpu = host_cpu
        self.name = name
        if options.slowdown_enabled:
            import copy
            options = copy.deepcopy(options)
            options.slowdown_enabled = False
        # None keeps every hot path untouched (production trajectories
        # depend on it); a ResilienceConfig turns on retries around both
        # device interfaces plus the HEALTHY/DEGRADED/RECOVERING machine.
        self.resil = (DegradationManager(env, resilience)
                      if resilience is not None else None)
        if resilience is not None:
            ssd.kv.retry = RetryExecutor(env, resilience.retry, name="kv")
            ssd.block.retry = RetryExecutor(env, resilience.retry,
                                            name="block")
        self.main = DbImpl(env, options, ssd.block, host_cpu,
                           name=f"{name}.main", **db_kw)
        self.detector = WriteStallDetector(env, self.main, detector_config)
        self.metadata = MetadataManager(host_cpu)
        self.controller = KvaccelController(env, self.main, ssd.kv,
                                            self.detector, self.metadata,
                                            resil=self.resil)
        rb_config = (rollback if isinstance(rollback, RollbackConfig)
                     else RollbackConfig(scheme=rollback))
        self.rollback_manager = RollbackManager(env, self.controller,
                                                self.detector, rb_config,
                                                resil=self.resil)

    # -- data plane -----------------------------------------------------------
    def put(self, key: bytes, value) -> Generator:
        return self.controller.put(key, value)

    def put_batch(self, pairs: list) -> Generator:
        return self.controller.put_batch(pairs)

    def delete(self, key: bytes) -> Generator:
        return self.controller.delete(key)

    def get(self, key: bytes) -> Generator:
        return self.controller.get(key)

    def scan(self, start_key: bytes, count: int) -> Generator:
        return range_query(self.controller, start_key, count)

    # -- lifecycle ---------------------------------------------------------------
    def final_rollback(self) -> Generator:
        """Force a rollback now (end-of-workload drain for lazy/disabled)."""
        if not self.ssd.kv.is_empty:
            yield from self.rollback_manager.rollback_once()

    def recover(self) -> Generator:
        """Crash-recover the lost metadata table (Section VI-D): a rollback
        that rebuilds the table first; returns its ``RollbackRecord``."""
        if self.main.background_error is not None:
            self.main.resume()
        if self.resil is not None:
            self.resil.reset()
        return (yield from self.rollback_manager.rollback_once(
            after_crash=True))

    def wait_for_quiesce(self) -> Generator:
        yield from self.main.wait_for_quiesce()

    def close(self) -> None:
        self.detector.stop()
        self.rollback_manager.stop()
        self.main.close()

    # -- introspection ---------------------------------------------------------
    @property
    def stats(self):
        return self.main.stats

    @property
    def write_controller(self):
        return self.main.write_controller

    def snapshot(self) -> dict:
        snap = self.main.property_snapshot()
        snap.update({
            "redirected_writes": self.controller.redirected_writes,
            "normal_writes": self.controller.normal_writes,
            "devlsm_entries": self.ssd.devlsm.entry_count,
            "devlsm_bytes": self.ssd.devlsm.total_bytes,
            "metadata_keys": len(self.metadata),
            "rollbacks": self.rollback_manager.rollback_count,
            "detector_stall": self.detector.stall_condition,
        })
        if self.resil is not None:
            snap.update({
                "resil_state": self.resil.state,
                "resil_device_errors": self.resil.device_errors,
                "resil_fallback_writes": self.resil.fallback_writes,
                "kv_retries": self.ssd.kv.retry.stats.retries,
                "block_retries": self.ssd.block.retry.stats.retries,
            })
        return snap
