"""Experiment profiles: paper-scale constants and the scaled `mini` profile.

The paper's runs are 600 s against a 630 MB/s device with a 128 MB
memtable — ~10^8 operations, far beyond what a Python DES should step
through.  All stall dynamics are *ratio* phenomena (ingest vs flush vs
compaction vs device bandwidth), so shrinking every capacity by a factor S
while keeping all rates (bandwidths, CPU costs) fixed contracts the entire
timeline by S without changing any of the shapes: the same number of stall
cycles, slowdown episodes and compaction waves happen in 600/S seconds.

The ``mini`` profile uses S = 64: 9.375 s horizon, 2 MB memtable, 1-second
PCM buckets become 15.625 ms buckets.  Throughput (ops/s) and CPU% remain
directly comparable with the paper because rates were never scaled.

``paper`` carries the unscaled constants for documentation and for anyone
patient enough to run it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..core import DetectorConfig
from ..device import DevLsmConfig, HybridSsdConfig, MiB, NandGeometry
from ..lsm import LsmOptions
from ..resil import ResilienceConfig

__all__ = ["ExperimentProfile", "paper_profile", "paper_smoke_profile",
           "mini_profile", "active_profile", "get_profile"]


@dataclass
class ExperimentProfile:
    """Everything a runner needs to instantiate one experiment."""

    name: str
    scale: float                     # capacity scale factor (1 = paper)
    duration: float                  # workload horizon (sim seconds)
    sample_period: float             # PCM / throughput bucket (sim seconds)
    options: LsmOptions              # host LSM options (scaled)
    ssd: HybridSsdConfig
    detector: DetectorConfig
    rollback_quiet_window: float
    adoc_interval: float
    key_space: int
    value_size: int = 4096
    key_size: int = 4
    batch_size: int = 32
    device_peak_bw: float = 630 * MiB
    host_cores: int = 8              # Table II: usage limited to 8 cores
    page_cache_bytes: int = 32 * 1024 * MiB   # host RAM share for page cache
    seekrandom_fill_bytes: int = 0
    seekrandom_nexts: int = 1024
    # None (the default, and what every figure profile uses) leaves the
    # resilience stack out entirely — retries, degradation tracking and
    # NAND error modelling all stay off the hot path, so trajectories
    # match the pinned goldens bit-for-bit.
    resilience: Optional[ResilienceConfig] = None


def _paper_options() -> LsmOptions:
    """Table III + RocksDB v8.3 defaults for everything unstated."""
    return LsmOptions(
        write_buffer_size=128 * MiB,           # Table III
        max_write_buffer_number=2,
        level0_file_num_compaction_trigger=4,
        level0_slowdown_writes_trigger=20,
        level0_stop_writes_trigger=36,
        max_bytes_for_level_base=256 * MiB,
        max_bytes_for_level_multiplier=10,
        target_file_size_base=64 * MiB,
        soft_pending_compaction_bytes_limit=64 * 1024 * MiB,
        hard_pending_compaction_bytes_limit=256 * 1024 * MiB,
        slowdown_enabled=True,
        delayed_write_rate=16 * MiB,           # RocksDB default; adaptive
        # floor = rate/2 = 8 MiB/s ~ 2 Kops/s at 4 KB values (Fig 2's floor)
        max_background_compactions=1,
    )


def paper_profile() -> ExperimentProfile:
    """Unscaled constants of Section VI-A (documentation / heroic runs)."""
    geometry = NandGeometry(blocks_per_way=8192)   # ~1 TB like the Cosmos+
    return ExperimentProfile(
        name="paper",
        scale=1.0,
        duration=600.0,
        sample_period=1.0,
        options=_paper_options(),
        ssd=HybridSsdConfig(geometry=geometry,
                            peak_nand_bandwidth=630 * MiB),
        detector=DetectorConfig(period=0.1),
        rollback_quiet_window=1.0,
        adoc_interval=1.0,
        key_space=1 << 25,
        seekrandom_fill_bytes=20 * 1024 * MiB,
        page_cache_bytes=32 * 1024 * MiB,
    )


def mini_profile(scale: int = 64) -> ExperimentProfile:
    """The default benchmarking profile: capacities / durations ÷ scale."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    s = 1.0 / scale
    opts = _paper_options().scaled(s)
    # Batching artifacts are rates, not capacities: keep them paper-sized.
    opts.wal_group_commit_bytes = 256 * 1024
    opts.compaction_io_chunk = 2 * MiB

    # ~16 GiB device at scale 64 (1 TB / 64), full channel parallelism.
    # Fixed per-op NAND latencies scale down with the capacities: I/O sizes
    # shrank by S, so unscaled latencies would over-tax small transfers.
    from ..device import NandTiming
    timing = NandTiming(t_read=90e-6 * s, t_program=700e-6 * s,
                        t_erase=5e-3 * s)
    geometry = NandGeometry(blocks_per_way=max(8, 8192 // scale),
                            timing=timing)
    bucket = 1.0 / scale
    ssd = HybridSsdConfig(
        geometry=geometry,
        peak_nand_bandwidth=630 * MiB,
        ledger_bucket=bucket,
        devlsm=DevLsmConfig(memtable_bytes=max(64 * 1024, int(16 * MiB * s))),
    )
    return ExperimentProfile(
        name=f"mini{scale}",
        scale=s,
        duration=600.0 / scale,
        sample_period=bucket,
        options=opts,
        ssd=ssd,
        detector=DetectorConfig(period=0.1 / scale),
        rollback_quiet_window=1.0 / scale,
        adoc_interval=1.0 / scale,
        key_space=1 << 22,
        seekrandom_fill_bytes=int(20 * 1024 * MiB * s),
        page_cache_bytes=int(32 * 1024 * MiB * s),
    )


def paper_smoke_profile() -> ExperimentProfile:
    """A truncated slice of the *unscaled* paper profile.

    Same 1 TB geometry, paper RocksDB options and detector periods as
    :func:`paper_profile` — only the horizon is cut to ~10^6 driver
    operations (≈40 s at the paper's steady-state fillrandom throughput)
    and the seekrandom preload is shrunk so workload E smoke runs do not
    spend minutes filling 20 GB.  CI's perf job runs this to catch
    regressions that only show at paper-sized capacities (big memtables,
    deep queues, paper NAND latencies) without paying for a 600 s cell.
    Shape checks are tuned for the full horizon (stall dynamics need
    minutes of compaction debt to develop), so a truncated slice is a
    perf/smoke vehicle, not a figure-reproduction profile.
    """
    p = paper_profile()
    p.name = "paper-smoke"
    p.duration = 40.0
    p.seekrandom_fill_bytes = 512 * MiB
    return p


def get_profile(spec: str) -> ExperimentProfile:
    """Resolve a profile by name: ``paper``, ``paper-smoke``, ``mini``
    or ``mini<N>``."""
    if spec == "paper":
        return paper_profile()
    if spec == "paper-smoke":
        return paper_smoke_profile()
    if spec == "mini":
        return mini_profile(64)
    if spec.startswith("mini"):
        return mini_profile(int(spec[4:]))
    raise ValueError(f"unknown profile {spec!r}")


def active_profile() -> ExperimentProfile:
    """Profile selected by the REPRO_PROFILE env var.

    * unset / ``mini``      -> mini_profile(64)  (default)
    * ``mini<N>``           -> mini_profile(N), e.g. mini128 for quicker runs
    * ``paper``             -> paper_profile()
    """
    return get_profile(os.environ.get("REPRO_PROFILE", "mini"))
