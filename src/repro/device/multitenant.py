"""Multi-tenant key-value interface (paper Section V-D).

"Multi-tenancy on the block interface is supported by namespaces as
specified in the NVMe standard, while previous works on supporting
namespaces and multi-tenancy on the key-value interface are compatible
with KVACCEL's key-value interface implementation."

:class:`NamespacedKvInterface` realizes that: each KV namespace owns a
private :class:`~repro.device.DevLsm` (its own device-DRAM memtable quota,
runs, and a disjoint slice of the KV region's logical pages sized by its
quota), while all namespaces share the physical NAND array, the FTL's KV
block pool, the ARM core, and the PCIe link — so tenants are *logically*
isolated but *physically* contended, exactly the property the paper's
cited KV-SSD namespace work (HotStorage '21) provides.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..sim import Environment
from .cpu import CpuModel
from .devlsm import DevLsm, DevLsmConfig
from .ftl import Ftl
from .kv_dev import KvDevice, KvDeviceConfig
from .nand import NandArray
from .pcie import PcieLink

__all__ = ["NamespacedKvInterface", "KvNamespace"]


class KvNamespace:
    """One tenant's slice of the key-value interface."""

    def __init__(self, nsid: int, name: str, kv: KvDevice, quota_bytes: int):
        self.nsid = nsid
        self.name = name
        self.kv = kv
        self.quota_bytes = quota_bytes

    @property
    def used_bytes(self) -> int:
        return self.kv.devlsm.total_bytes

    @property
    def over_quota(self) -> bool:
        return self.used_bytes > self.quota_bytes


class NamespacedKvInterface:
    """Factory + registry of per-tenant KV namespaces on one device."""

    def __init__(
        self,
        env: Environment,
        ftl: Ftl,
        nand: NandArray,
        arm: CpuModel,
        pcie: PcieLink,
        host_cpu: CpuModel,
        devlsm_config: Optional[DevLsmConfig] = None,
        kv_config: Optional[KvDeviceConfig] = None,
    ):
        self.env = env
        self.ftl = ftl
        self.nand = nand
        self.arm = arm
        self.pcie = pcie
        self.host_cpu = host_cpu
        self.devlsm_config = devlsm_config or DevLsmConfig()
        self.kv_config = kv_config or KvDeviceConfig()
        self._namespaces: dict[int, KvNamespace] = {}
        self._next_nsid = 1
        self._kv_capacity = (ftl.region("kv").lpn_count
                             * ftl.geometry.page_size)

    def _slice(self, pages: int) -> range:
        """The first run of ``pages`` KV-region LPNs no tenant holds."""
        kv = self.ftl.region("kv")
        start = kv.lpn_start
        for held in sorted((ns.kv.devlsm.lpns
                            for ns in self._namespaces.values()),
                           key=lambda r: r.start):
            if held.start - start >= pages:
                break
            start = held.stop
        if start + pages > kv.lpn_start + kv.lpn_count:
            raise ValueError(f"KV region has no free run of {pages} pages")
        return range(start, start + pages)

    # -- management --------------------------------------------------------
    def create(self, name: str, quota_bytes: int,
               memtable_bytes: Optional[int] = None) -> KvNamespace:
        """Create a tenant namespace with a KV-region quota.

        ``memtable_bytes`` optionally overrides the device-DRAM share of
        this tenant's Dev-LSM (the device DRAM is partitioned, so the sum
        over tenants should stay within the configured default budget).
        """
        if quota_bytes <= 0:
            raise ValueError("quota must be positive")
        allocated = sum(ns.quota_bytes for ns in self._namespaces.values())
        if allocated + quota_bytes > self._kv_capacity:
            raise ValueError(
                f"KV region exhausted: {allocated} + {quota_bytes} "
                f"> {self._kv_capacity}")
        cfg = self.devlsm_config
        if memtable_bytes is not None:
            cfg = replace(cfg, memtable_bytes=memtable_bytes)
        pages = -(-quota_bytes // self.ftl.geometry.page_size)
        devlsm = DevLsm(self.env, self.ftl, self.nand, self.arm,
                        self._slice(pages), config=cfg)
        kv = KvDevice(self.env, devlsm, self.pcie, self.host_cpu,
                      config=self.kv_config)
        ns = KvNamespace(self._next_nsid, name, kv, quota_bytes)
        self._namespaces[ns.nsid] = ns
        self._next_nsid += 1
        return ns

    def delete(self, nsid: int) -> None:
        ns = self._namespaces.pop(nsid, None)
        if ns is None:
            raise KeyError(f"no KV namespace {nsid}")
        ns.kv.devlsm.reset()

    def get(self, nsid: int) -> KvNamespace:
        try:
            return self._namespaces[nsid]
        except KeyError:
            raise KeyError(f"no KV namespace {nsid}") from None

    def namespaces(self) -> list:
        return sorted(self._namespaces.values(), key=lambda n: n.nsid)

    @property
    def total_used_bytes(self) -> int:
        return sum(ns.used_bytes for ns in self._namespaces.values())
