"""The hybrid dual-interface SSD (Section V-D).

One physical device, one NAND array, one FTL — two interfaces:

* ``block``: a :class:`BlockDevice` over the FTL's block region, on which
  the host file system and Main-LSM live;
* ``kv``: a :class:`KvDevice` over the KV region, backed by the in-device
  :class:`DevLsm`.

Both interfaces share the PCIe link and the NAND array, so traffic on one
contends with the other exactly as on the real Cosmos+ prototype.

Tenants share the device through NVMe namespaces (Section V-D,
"Multi-Tenancy and Multi-Device Support"): :meth:`HybridSsd.create_namespace`
carves a :class:`Namespace` out of both regions, with its own ``block``
over a run of block-region pages and its own ``kv`` over a private Dev-LSM
on a run of KV-region pages.  A stack built on a namespace stays inside
it, and deleting a namespace trims only its own pages; tenants are
logically isolated but share the NAND array, the ARM core and the PCIe
link.  A stack built on the whole device (``ssd.block``/``ssd.kv``) still
spans both regions, whatever namespaces are carved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim import Environment
from .block_dev import BlockDevice
from .cpu import CpuModel
from .devlsm import DevLsm, DevLsmConfig
from .error_model import NandErrorConfig, NandErrorModel
from .ftl import Ftl, Region
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
    """One tenant's paired block+KV namespace, the surface a stack runs on.

    ``block`` maps byte 0 onwards to the namespace's own run of whole
    block-region pages, ``kv`` talks to its own Dev-LSM on its own run of
    KV-region pages, and ``pcie`` is the device's link, so
    ``KvaccelDb(env, options, ns, cpu)`` builds a stack confined to it.
    """

    nsid: int
    name: str
    block: BlockDevice
    kv: KvDevice
    pcie: PcieLink

    @property
    def block_offset(self) -> int:
        """Byte offset of the block extent within the block region."""
        block = self.block
        start = block.ftl.region("block").lpn_start
        return (block.lpns.start - start) * block.page_size

    @property
    def block_bytes(self) -> int:
        return self.block.capacity_bytes

    @property
    def kv_quota_bytes(self) -> int:
        return len(self.kv.devlsm.lpns) * self.kv.devlsm.page_size


def _first_fit(region: Region, pages: int, held: list[range]) -> range:
    """The first run of ``pages`` LPNs of ``region`` that no range of
    ``held`` (disjoint runs of that region) overlaps."""
    start = region.lpn_start
    for run in sorted(held, key=lambda r: r.start):
        if run.start - start >= pages:
            break
        start = run.stop
    if start + pages > region.lpn_start + region.lpn_count:
        raise ValueError(
            f"{region.name} region has no free run of {pages} pages")
    return range(start, start + pages)


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

    # -- namespaces ---------------------------------------------------------
    def create_namespace(self, name: str, block_bytes: int,
                         kv_quota_bytes: int) -> Namespace:
        """Carve a tenant's paired block+KV namespace: the first free run
        of whole pages in each region, sized up from the byte counts."""
        if block_bytes <= 0 or kv_quota_bytes <= 0:
            raise ValueError("namespace sizes must be positive")
        page = self.config.geometry.page_size
        held = self._namespaces.values()
        block_lpns = _first_fit(self.ftl.region("block"),
                                -(-block_bytes // page),
                                [ns.block.lpns for ns in held])
        kv_lpns = _first_fit(self.ftl.region("kv"), -(-kv_quota_bytes // page),
                             [ns.kv.devlsm.lpns for ns in held])
        env = self.env
        devlsm = DevLsm(env, self.ftl, self.nand, self.arm, kv_lpns,
                        config=self.config.devlsm)
        ns = Namespace(
            nsid=self._next_nsid,
            name=name,
            block=BlockDevice(env, self.ftl, self.nand, self.pcie, block_lpns),
            kv=KvDevice(env, devlsm, self.pcie, self.kv.host_cpu),
            pcie=self.pcie,
        )
        self._namespaces[ns.nsid] = ns
        self._next_nsid += 1
        return ns

    def delete_namespace(self, nsid: int) -> None:
        """Trim the namespace's block extent and reset its Dev-LSM; both
        runs of pages are free for the next namespace."""
        ns = self._namespaces.pop(nsid, None)
        if ns is None:
            raise KeyError(f"no namespace {nsid}")
        self.ftl.trim(ns.block.lpns)
        ns.kv.devlsm.reset()

    def namespaces(self) -> list[Namespace]:
        return sorted(self._namespaces.values(), key=lambda n: n.nsid)


class MultiDeviceSetup:
    """Two-device deployment (paper Section V-D, final paragraph).

    "The two interfaces can be used as separate devices, where one storage
    device utilizes the block region, while another the key-value
    interface."  The Main-LSM runs on device A's block interface while
    redirected writes land on device B's key-value interface — the two
    no longer contend for the same NAND array (each keeps its own PCIe
    link and controller), at the cost of a second device.

    Exposes the same ``block`` / ``kv`` / ``pcie`` surface as
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
    def pcie(self):
        return self.block_ssd.pcie
