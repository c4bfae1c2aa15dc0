"""Trace-driven simulation: the event kernel, façades, results, power profiles."""

from .engine import (
    CellLoad,
    EventKind,
    KernelResult,
    LoadSample,
    SimulationEngine,
    StreamOrderError,
    UeContext,
)
from .power_trace import PowerSample, PowerTrace, build_power_trace
from .results import GapDecision, SessionDelay, SimulationResult
from .simulator import TraceSimulator

__all__ = [
    "CellLoad",
    "EventKind",
    "GapDecision",
    "KernelResult",
    "LoadSample",
    "PowerSample",
    "PowerTrace",
    "SessionDelay",
    "SimulationEngine",
    "SimulationResult",
    "StreamOrderError",
    "TraceSimulator",
    "UeContext",
    "build_power_trace",
]
