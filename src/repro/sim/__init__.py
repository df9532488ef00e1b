"""Discrete-event simulation kernel (SimPy-like, dependency-free)."""

from .core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    MacroStats,
    Probes,
    Process,
    SimulationError,
    Timeout,
)
from .eventqueue import EventQueue
from .resources import PriorityResource, Request, Resource, Store
from .samplers import PeriodicSampler

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "PriorityResource",
    "Request",
    "Resource",
    "Store",
    "PeriodicSampler",
    "EventQueue",
    "MacroStats",
    "Probes",
]
