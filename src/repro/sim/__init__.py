"""Deterministic discrete-event simulation substrate."""

from .engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    SimProcess,
    Timeout,
    SUBSTRATE_ENV,
    active_substrate,
)
from .queues import CalendarQueue, Channel, Gate, HeapEventQueue, PriorityLock
from .trace import TraceRecord, Tracer
from . import units

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Interrupt",
    "SimProcess",
    "Timeout",
    "SUBSTRATE_ENV",
    "active_substrate",
    "CalendarQueue",
    "Channel",
    "Gate",
    "HeapEventQueue",
    "PriorityLock",
    "TraceRecord",
    "Tracer",
    "units",
]
