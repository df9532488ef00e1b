"""Host LSM-KVS configuration, mirroring RocksDB's option names.

The stall-related knobs reproduce RocksDB's write-stall conditions
(https://github.com/facebook/rocksdb/wiki/Write-Stalls, paper Section II-A):

* memtable stall — immutable memtables pile up to ``max_write_buffer_number``;
* L0 stall — file count reaches ``level0_stop_writes_trigger`` (slowdown at
  ``level0_slowdown_writes_trigger``);
* pending-compaction-bytes stall — estimated backlog crosses the hard limit
  (slowdown at the soft limit).

``slowdown_enabled`` toggles the delayed-write mechanism (Fig 2/3 compare
both settings); ``delayed_write_rate`` is the token-bucket rate applied
while in the DELAYED state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

from ..device.geometry import KiB, MiB

__all__ = ["LsmOptions"]

# The byte capacities ``LsmOptions.scaled`` multiplies.
_BYTE_FIELDS = ("write_buffer_size", "max_bytes_for_level_base",
                "target_file_size_base", "soft_pending_compaction_bytes_limit",
                "hard_pending_compaction_bytes_limit", "compaction_io_chunk",
                "wal_group_commit_bytes")


@dataclass
class LsmOptions:
    """RocksDB-flavoured options for the simulated host LSM."""

    # memtable
    write_buffer_size: int = 128 * MiB          # Table III: MT size 128 MB
    # One active plus one immutable memtable.  This and
    # ``bloom_bits_per_key`` are class constants every run shares, not
    # fields.
    max_write_buffer_number: ClassVar[int] = 2

    # level shape
    level0_file_num_compaction_trigger: int = 4
    level0_slowdown_writes_trigger: int = 20
    level0_stop_writes_trigger: int = 36
    max_bytes_for_level_base: int = 256 * MiB
    max_bytes_for_level_multiplier: int = 10
    num_levels: int = 7
    target_file_size_base: int = 64 * MiB

    # pending compaction debt
    soft_pending_compaction_bytes_limit: int = 4 * 1024 * MiB
    hard_pending_compaction_bytes_limit: int = 16 * 1024 * MiB

    # write throttling
    slowdown_enabled: bool = True
    delayed_write_rate: float = 8 * MiB         # bytes/s while DELAYED

    # background work
    max_background_compactions: int = 1         # thread count (Table III)
    compaction_io_chunk: int = 2 * MiB          # read-merge-write granularity

    # SST layout
    block_size: int = 16 * KiB
    bloom_bits_per_key: ClassVar[int] = 10      # RocksDB's default

    # WAL
    wal_group_commit_bytes: int = 256 * KiB

    def __post_init__(self) -> None:
        if self.write_buffer_size <= 0:
            raise ValueError("write_buffer_size must be positive")
        if not (0 < self.level0_file_num_compaction_trigger
                <= self.level0_slowdown_writes_trigger
                <= self.level0_stop_writes_trigger):
            raise ValueError("L0 triggers must be ordered: compact <= slowdown <= stop")
        if self.soft_pending_compaction_bytes_limit > self.hard_pending_compaction_bytes_limit:
            raise ValueError("soft pending limit must be <= hard limit")
        if self.max_background_compactions < 1:
            raise ValueError("max_background_compactions must be >= 1")
        if self.num_levels < 2:
            raise ValueError("num_levels must be >= 2")
        if self.delayed_write_rate <= 0:
            raise ValueError("delayed_write_rate must be positive")

    def scaled(self, factor: float) -> "LsmOptions":
        """Scale all byte capacities by ``factor`` (mini profile).

        Rates (delayed_write_rate) and counts (triggers, threads) are left
        untouched so throughput and CPU% remain directly
        comparable to the paper while run horizons shrink.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")

        def sz(x: int) -> int:
            return max(4 * KiB, int(x * factor))

        return replace(self, **{name: sz(getattr(self, name))
                                for name in _BYTE_FIELDS})
