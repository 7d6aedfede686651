"""Deterministic discrete-event simulation substrate."""

from .engine import (
    AnyOf,
    Engine,
    Event,
    SimProcess,
    Timeout,
    SUBSTRATE_ENV,
    active_substrate,
)
from .queues import CalendarQueue, Channel, Gate, HeapEventQueue, PriorityLock
from . import units

__all__ = [
    "AnyOf",
    "Engine",
    "Event",
    "SimProcess",
    "Timeout",
    "SUBSTRATE_ENV",
    "active_substrate",
    "CalendarQueue",
    "Channel",
    "Gate",
    "HeapEventQueue",
    "PriorityLock",
    "units",
]
