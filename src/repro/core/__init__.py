"""KVACCEL core: detector, controller, metadata, rollback, range query."""

from .controller import KvaccelController
from .detector import DetectorConfig, WriteStallDetector
from .kvaccel import KvaccelDb
from .metadata import MetadataManager
from .range_query import DualIterator, range_query
from .recovery import RecoveryReport, recover_after_crash
from .rollback import RollbackConfig, RollbackManager, RollbackRecord

__all__ = [
    "KvaccelController",
    "DetectorConfig",
    "WriteStallDetector",
    "KvaccelDb",
    "MetadataManager",
    "DualIterator",
    "range_query",
    "RecoveryReport",
    "recover_after_crash",
    "RollbackConfig",
    "RollbackManager",
    "RollbackRecord",
]
