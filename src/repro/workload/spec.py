"""Workload definitions — Table IV of the paper.

=========  =================  ==========================  =====================
Name       Type               Characteristics             Notes
=========  =================  ==========================  =====================
A          fillrandom         1 write thread              no write limit
B          readwhilewriting   1 write + 1 read thread     9:1 write/read ratio
C          readwhilewriting   1 write + 1 read thread     8:2 write/read ratio
D          seekrandom         1 range-query thread        Seek + 1024 Next,
                                                          after initial fill
=========  =================  ==========================  =====================

Key and value sizes, horizons, D's Next()s per Seek and its fill volume are
profile constants (``repro.bench.profiles``); a spec says only what kind of
load each workload is.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WorkloadSpec", "WORKLOADS"]


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    kind: str                    # fillrandom | readwhilewriting | seekrandom
    write_ratio: float = 1.0     # share of ops that are writes (B: 0.9, C: 0.8)
    read_ratio: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("fillrandom", "readwhilewriting", "seekrandom"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if not 0 <= self.write_ratio <= 1 or not 0 <= self.read_ratio <= 1:
            raise ValueError("ratios must be in [0, 1]")


WORKLOADS: dict[str, WorkloadSpec] = {
    "A": WorkloadSpec(name="A", kind="fillrandom",
                      write_ratio=1.0, read_ratio=0.0),
    "B": WorkloadSpec(name="B", kind="readwhilewriting",
                      write_ratio=0.9, read_ratio=0.1),
    "C": WorkloadSpec(name="C", kind="readwhilewriting",
                      write_ratio=0.8, read_ratio=0.2),
    "D": WorkloadSpec(name="D", kind="seekrandom", write_ratio=0.0,
                      read_ratio=1.0),
}
