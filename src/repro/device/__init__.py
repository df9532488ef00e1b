"""Simulated hybrid dual-interface SSD (NAND, FTL, PCIe, Dev-LSM)."""

from .block_dev import BlockDevice
from .cpu import CpuModel
from .devlsm import DevIterator, DevLsm, DevLsmConfig, Run
from .ftl import Ftl, FtlError, GcStats, Region
from .geometry import GiB, KiB, MiB, NandGeometry, NandTiming
from .hybrid import HybridSsd, HybridSsdConfig, MultiDeviceSetup, Namespace
from .multitenant import KvNamespace, NamespacedKvInterface
from .kv_dev import KvDevice
from .nand import NandArray
from .pcie import BandwidthPipe, PcieLink, TrafficLedger

__all__ = [
    "BlockDevice",
    "CpuModel",
    "DevIterator",
    "DevLsm",
    "DevLsmConfig",
    "Run",
    "Ftl",
    "FtlError",
    "GcStats",
    "Region",
    "GiB",
    "KiB",
    "MiB",
    "NandGeometry",
    "NandTiming",
    "HybridSsd",
    "HybridSsdConfig",
    "MultiDeviceSetup",
    "Namespace",
    "KvNamespace",
    "NamespacedKvInterface",
    "KvDevice",
    "NandArray",
    "BandwidthPipe",
    "PcieLink",
    "TrafficLedger",
]
