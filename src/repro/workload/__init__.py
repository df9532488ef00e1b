"""db_bench-style workload generators and drivers (Table IV)."""

from .db_bench import (
    DriverConfig,
    FillRandomDriver,
    ReadWhileWritingDriver,
    SeekRandomDriver,
    fill_database,
)
from .keygen import (
    KeyGenerator,
    RandomKeys,
    value_for,
)
from .trace import Trace, TraceOp, TraceRecorder, TraceReplayDriver
from .spec import WORKLOADS, WorkloadSpec

__all__ = [
    "DriverConfig",
    "FillRandomDriver",
    "ReadWhileWritingDriver",
    "SeekRandomDriver",
    "fill_database",
    "KeyGenerator",
    "RandomKeys",
    "value_for",
    "WORKLOADS",
    "WorkloadSpec",
    "Trace",
    "TraceOp",
    "TraceRecorder",
    "TraceReplayDriver",
]
