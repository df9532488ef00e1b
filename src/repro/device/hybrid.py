"""The hybrid dual-interface SSD (Section V-D).

One physical device, one NAND array, one FTL — two interfaces:

* ``block``: a :class:`BlockDevice` over the FTL's block region, on which
  the host file system and Main-LSM live;
* ``kv``: a :class:`KvDevice` over the KV region, backed by the in-device
  :class:`DevLsm`.

Both interfaces share the PCIe link and the NAND array, so traffic on one
contends with the other exactly as on the real Cosmos+ prototype.  The
class also models NVMe namespaces on both interfaces for multi-tenancy
(Section V-D, "Multi-Tenancy and Multi-Device Support"): a tenant gets a
paired block+KV namespace carved out of each region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim import Environment
from .block_dev import BlockDevice
from .cpu import CpuModel
from .devlsm import DevLsm, DevLsmConfig
from .error_model import NandErrorConfig, NandErrorModel
from .ftl import Ftl
from .geometry import MiB, NandGeometry
from .kv_dev import KvDevice
from .nand import NandArray
from .pcie import PcieLink

__all__ = ["HybridSsd", "HybridSsdConfig", "Namespace"]


@dataclass
class HybridSsdConfig:
    """Top-level device configuration."""

    geometry: NandGeometry = field(default_factory=NandGeometry)
    peak_nand_bandwidth: float = 630 * MiB  # measured device peak (paper)
    pcie_bandwidth: float = PcieLink.GEN2_X8
    ledger_bucket: float = 1.0            # PCM-style traffic bucket (seconds)
    nand_priority_scheduling: bool = True   # latency-critical (WAL/flush)
                                            # I/O jumps background compaction
                                            # chunks, like NVMe's weighted queues
    devlsm: DevLsmConfig = field(default_factory=DevLsmConfig)
    # None -> perfect NAND (the default; production trajectories depend
    # on it).  Set to model wear-driven program/erase failures, grown bad
    # blocks, and ECC read-retry latency tails.
    nand_errors: Optional[NandErrorConfig] = None


@dataclass
class Namespace:
    """A paired (block, kv) namespace for one tenant."""

    nsid: int
    name: str
    block_offset: int
    block_bytes: int
    kv_quota_bytes: int


class HybridSsd:
    """The assembled dual-interface device."""

    def __init__(self, env: Environment, host_cpu: CpuModel,
                 config: Optional[HybridSsdConfig] = None):
        self.env = env
        self.config = config or HybridSsdConfig()
        cfg = self.config

        self.pcie = PcieLink(env, bandwidth=cfg.pcie_bandwidth,
                             bucket=cfg.ledger_bucket)
        self.nand = NandArray(env, cfg.geometry,
                              peak_bandwidth=cfg.peak_nand_bandwidth,
                              priority_scheduling=cfg.nand_priority_scheduling)
        self.ftl = Ftl(cfg.geometry)
        if cfg.nand_errors is not None:
            self.nand.error_model = NandErrorModel(env, self.ftl,
                                                   cfg.nand_errors)
        # One Cortex-A9 core runs the Dev-LSM.
        self.arm = CpuModel(env, cores=1, name="arm")

        self.block = BlockDevice(env, self.ftl, self.nand, self.pcie)
        kv = self.ftl.region("kv")
        self.devlsm = DevLsm(env, self.ftl, self.nand, self.arm,
                             range(kv.lpn_start, kv.lpn_start + kv.lpn_count),
                             config=cfg.devlsm)
        self.kv = KvDevice(env, self.devlsm, self.pcie, host_cpu)

        self._namespaces: dict[int, Namespace] = {}
        self._next_nsid = 1
        self._ns_block_cursor = 0

    # -- geometry-facing ---------------------------------------------------
    @property
    def block_capacity_bytes(self) -> int:
        return self.block.capacity_bytes

    @property
    def kv_capacity_bytes(self) -> int:
        return self.ftl.region("kv").lpn_count * self.config.geometry.page_size

    # -- namespaces ---------------------------------------------------------
    def create_namespace(self, name: str, block_bytes: int,
                         kv_quota_bytes: int) -> Namespace:
        """Carve a paired block+KV namespace for a tenant."""
        if block_bytes <= 0 or kv_quota_bytes <= 0:
            raise ValueError("namespace sizes must be positive")
        if self._ns_block_cursor + block_bytes > self.block_capacity_bytes:
            raise ValueError("block region exhausted for namespaces")
        allocated_kv = sum(ns.kv_quota_bytes for ns in self._namespaces.values())
        if allocated_kv + kv_quota_bytes > self.kv_capacity_bytes:
            raise ValueError("kv region exhausted for namespaces")
        ns = Namespace(
            nsid=self._next_nsid,
            name=name,
            block_offset=self._ns_block_cursor,
            block_bytes=block_bytes,
            kv_quota_bytes=kv_quota_bytes,
        )
        self._namespaces[ns.nsid] = ns
        self._next_nsid += 1
        self._ns_block_cursor += block_bytes
        return ns

    def delete_namespace(self, nsid: int) -> None:
        ns = self._namespaces.pop(nsid, None)
        if ns is None:
            raise KeyError(f"no namespace {nsid}")
        self.block.trim(ns.block_offset, ns.block_bytes)

    def namespaces(self) -> list[Namespace]:
        return sorted(self._namespaces.values(), key=lambda n: n.nsid)

    def kv_namespaces(self, host_cpu: CpuModel):
        """Per-tenant KV namespaces over this device's KV region.

        Lazily constructed; see :mod:`repro.device.multitenant`.
        """
        if not hasattr(self, "_kv_ns"):
            from .multitenant import NamespacedKvInterface
            self._kv_ns = NamespacedKvInterface(
                self.env, self.ftl, self.nand, self.arm, self.pcie,
                host_cpu, devlsm_config=self.config.devlsm)
        return self._kv_ns


class MultiDeviceSetup:
    """Two-device deployment (paper Section V-D, final paragraph).

    "The two interfaces can be used as separate devices, where one storage
    device utilizes the block region, while another the key-value
    interface."  The Main-LSM runs on device A's block interface while
    redirected writes land on device B's key-value interface — the two
    no longer contend for the same NAND array (each keeps its own PCIe
    link and controller), at the cost of a second device.

    Exposes the same ``block`` / ``kv`` / ``devlsm`` / ``pcie`` surface as
    :class:`HybridSsd`, so :class:`~repro.core.KvaccelDb` runs on either
    interchangeably.  ``pcie`` reports device A's link (where the
    PCM-style measurements of the paper were taken).
    """

    def __init__(self, env: Environment, host_cpu: CpuModel,
                 block_device_config: Optional[HybridSsdConfig] = None,
                 kv_device_config: Optional[HybridSsdConfig] = None):
        self.env = env
        self.block_ssd = HybridSsd(env, host_cpu, block_device_config)
        self.kv_ssd = HybridSsd(env, host_cpu, kv_device_config)

    @property
    def block(self):
        return self.block_ssd.block

    @property
    def kv(self):
        return self.kv_ssd.kv

    @property
    def devlsm(self):
        return self.kv_ssd.devlsm

    @property
    def pcie(self):
        return self.block_ssd.pcie

    @property
    def config(self):
        return self.block_ssd.config
