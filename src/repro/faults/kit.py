"""Crash-scenario kit: what every fault harness is built from.

The crash-point sweep (:mod:`~repro.faults.harness`), the chaos soak
(:mod:`repro.resil.soak`), the failover scenarios
(:mod:`repro.cluster.scenario`) and ``tests/helpers.py`` bring their own
workloads and reports; what they share is defined here, once:

* the small system — geometry, LSM options, resilience windows and a
  share-nothing KVACCEL stack sized so a few hundred ~400 B writes reach
  flush, compaction and the Dev-LSM within milliseconds of simulated time;
* :class:`OracleClient` — a db-shaped client shadowing every op in a
  :class:`~repro.faults.oracle.DifferentialOracle`;
* the crash choreography — arm a ``CRASH``, abandon the op it caught.

Not re-exported by ``repro.faults`` (whose leaf modules the simulation
layers import): this module imports the whole stack.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core import DetectorConfig, KvaccelDb
from ..device import (
    CpuModel,
    DevLsmConfig,
    HybridSsd,
    HybridSsdConfig,
    KiB,
    MiB,
    NandGeometry,
)
from ..lsm import LsmOptions
from ..resil import DeviceError, ResilienceConfig
from ..sim import Environment, Event, Process
from .oracle import DifferentialOracle
from .plan import FaultPlan
from .registry import CRASH, FaultAction, FaultRegistry

__all__ = ["SMALL_GEOMETRY", "SMALL_RESILIENCE", "small_options",
           "small_ssd", "small_stack", "scripted_stack", "OracleClient",
           "arm_crash", "abandon_inflight"]

SMALL_GEOMETRY = NandGeometry(channels=2, ways=4, blocks_per_way=256,
                              pages_per_block=32, page_size=4096)
# Degradation windows on the small stack's millisecond timescale, so the
# RECOVERING -> HEALTHY probation completes inside a scripted workload.
SMALL_RESILIENCE = ResilienceConfig(
    degrade_error_threshold=3, degrade_window=0.05,
    recover_probation=1e-5, recover_min_successes=4)


def small_options(**overrides) -> LsmOptions:
    """The small LSM shape: 16 KiB memtables, L0 triggers 2/6/10."""
    base = dict(
        write_buffer_size=16 * KiB,
        level0_file_num_compaction_trigger=2,
        level0_slowdown_writes_trigger=6,
        level0_stop_writes_trigger=10,
        max_bytes_for_level_base=64 * KiB,
        max_bytes_for_level_multiplier=4,
        target_file_size_base=16 * KiB,
        soft_pending_compaction_bytes_limit=256 * KiB,
        hard_pending_compaction_bytes_limit=1 * MiB,
        compaction_io_chunk=16 * KiB,
        wal_group_commit_bytes=4 * KiB,
        block_size=4 * KiB,
    )
    base.update(overrides)
    return LsmOptions(**base)


def small_ssd(env: Environment, cpu: CpuModel, **overrides) -> HybridSsd:
    """A hybrid SSD on :data:`SMALL_GEOMETRY`; ``overrides`` replace
    :class:`HybridSsdConfig` fields (``nand_errors=...``)."""
    config = dict(geometry=SMALL_GEOMETRY,
                  peak_nand_bandwidth=200 * MiB,
                  pcie_bandwidth=1024 * MiB,
                  devlsm=DevLsmConfig(memtable_bytes=8 * KiB))
    config.update(overrides)
    return HybridSsd(env, cpu, HybridSsdConfig(**config))


def small_stack(env: Environment, name: str = "kvaccel",
                cpu_name: str = "host", *, options=None,
                rollback="disabled", detector_period: float = 0.002,
                nand_errors=None, **db_kw):
    """One share-nothing KVACCEL stack, built cpu -> ssd -> db (the
    construction order every pinned trajectory depends on); returns
    ``(db, ssd, cpu)``.  ``db_kw`` reaches :class:`KvaccelDb`
    (``resilience=...``)."""
    cpu = CpuModel(env, cores=8, name=cpu_name)
    ssd = small_ssd(env, cpu, nand_errors=nand_errors)
    db = KvaccelDb(env, options or small_options(), ssd, cpu, name=name,
                   rollback=rollback,
                   detector_config=DetectorConfig(period=detector_period),
                   **db_kw)
    return db, ssd, cpu


def scripted_stack(env: Environment, **kw) -> KvaccelDb:
    """A small stack for a workload that scripts its own stall windows and
    drains (a deterministic site sequence): the polling daemons, which
    would only add timer noise, are stopped."""
    db, _ssd, _cpu = small_stack(env, **kw)
    db.detector.stop()
    db.rollback_manager.stop()
    return db


class OracleClient:
    """A client whose every op is shadowed by a differential oracle.

    A write is ``begin -> op -> ack``.  A :class:`DeviceError` means the
    store refused it: the op is aborted (known not-committed) and the
    error re-raised for the workload to judge.  An ``Interrupt`` — the
    crash choreography killing the client mid-op — propagates with the op
    left in flight, which is what :meth:`DifferentialOracle.verify` needs
    to judge it.  Reads are checked inline against the committed view.
    """

    def __init__(self, db, seed: Optional[int] = None):
        self.db = db
        self.oracle = DifferentialOracle(seed=seed)

    def _write(self, pairs: list, op: Generator) -> Generator:
        self.oracle.begin_batch(pairs)
        try:
            yield from op
        except DeviceError:
            self.oracle.abort()
            raise
        self.oracle.ack()

    def write(self, key: bytes, value) -> Generator:
        """``put``, or ``delete`` when ``value`` is None."""
        op = self.db.delete(key) if value is None else self.db.put(key, value)
        return self._write([(key, value)], op)

    def put(self, key: bytes, value: bytes) -> Generator:
        return self.write(key, value)

    def delete(self, key: bytes) -> Generator:
        return self.write(key, None)

    def put_batch(self, pairs: list) -> Generator:
        return self._write(pairs, self.db.put_batch(pairs))

    def get(self, key: bytes) -> Generator:
        got = yield from self.db.get(key)
        self.oracle.check_read(key, got)

    def scan(self, start: bytes, count: int) -> Generator:
        rows = yield from self.db.scan(start, count)
        self.oracle.check_scan(start, rows, count)


def arm_crash(registry: FaultRegistry, env: Environment, site: str,
              plan: FaultPlan, validate: bool = True) -> Event:
    """Arm a ``CRASH`` at ``site`` under ``plan`` and return the event
    that fires when it hits — race the workload against it."""
    registry.arm(site, plan, FaultAction(CRASH), validate=validate)
    return registry.new_crash_event(env)


def abandon_inflight(proc: Process) -> bool:
    """The armed crash fired: the host died between events, so the client
    op it caught mid-yield never completes.  Interrupt it; True means the
    caller must wait for ``proc`` to die before disarming and recovering
    (its oracle op stays in flight)."""
    if proc.is_alive and proc._target is not None:
        proc.interrupt("crash")
        return True
    return False
