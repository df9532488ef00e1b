"""Deterministic fault injection & crash-consistency testing for KVACCEL.

Four pieces:

* :mod:`~repro.faults.registry` — named injection sites threaded through
  the device and LSM layers, armed with pluggable
  :mod:`~repro.faults.plan` policies;
* :mod:`~repro.faults.scheduler` — the crash-point sweep (enumerate every
  reached site, crash at each, recover, verify);
* :mod:`~repro.faults.oracle` — the differential oracle shadowing every
  acknowledged operation;
* :mod:`~repro.faults.kit` — what the sweep, the chaos soak and the
  failover scenarios share: the small system, the oracle-wrapped client
  and the crash choreography.

Import note: simulation modules (``repro.device``, ``repro.lsm``) import
``repro.faults.registry`` for the probe helpers, which executes this
``__init__``.  To avoid an import cycle it eagerly re-exports only the
leaf modules (plan/registry/oracle); the harness and scheduler — which
import the whole stack — load lazily on first attribute access, and the
kit is only ever imported as ``repro.faults.kit``.
"""

from .oracle import DifferentialOracle, Violation
from .plan import (
    AlwaysPlan,
    AtTimePlan,
    FaultPlan,
    NthOccurrencePlan,
    ProbabilisticPlan,
    ScriptedPlan,
)
from .registry import (
    CRASH,
    DEFAULT_SEED,
    DELAY,
    DROP,
    DUPLICATE,
    FAIL,
    FaultAction,
    FaultRegistry,
    InjectedFault,
    SiteHit,
    fault_point,
    fault_seed,
    touch,
)

_LAZY = {
    "KvaccelFaultHarness": "harness",
    "CrashReport": "harness",
    "PRE_PERSIST_SITES": "harness",
    "broken_recovery_skip_drain": "harness",
    "broken_recovery_skip_reset": "harness",
    "SweepReport": "scheduler",
    "sweep_crash_points": "scheduler",
}

__all__ = [
    "FaultPlan",
    "AlwaysPlan",
    "NthOccurrencePlan",
    "ProbabilisticPlan",
    "AtTimePlan",
    "ScriptedPlan",
    "FAIL",
    "CRASH",
    "DELAY",
    "DROP",
    "DUPLICATE",
    "DEFAULT_SEED",
    "FaultAction",
    "FaultRegistry",
    "InjectedFault",
    "SiteHit",
    "fault_point",
    "fault_seed",
    "touch",
    "DifferentialOracle",
    "Violation",
    *sorted(set(_LAZY)),
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
