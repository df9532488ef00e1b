"""Discrete-event simulation kernel (SimPy-like, dependency-free)."""

from .core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    KernelProfile,
    MacroStats,
    Probes,
    Process,
    SimulationError,
    Timeout,
    install_kernel_profiler,
    uninstall_kernel_profiler,
)
from .eventqueue import EventQueue
from .resources import PriorityResource, Request, Resource, Store
from .samplers import PeriodicSampler, RateMeter

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
    "RateMeter",
    "EventQueue",
    "KernelProfile",
    "MacroStats",
    "Probes",
    "install_kernel_profiler",
    "uninstall_kernel_profiler",
]
