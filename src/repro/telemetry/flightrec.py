"""The flight recorder: a crash-surviving ring of recent events.

Forensics with the exokernel split applied to observability.  The
recorder is a bounded ring of recent span / fault / degradation / SLO
events that lives in *application* memory — a plain per-node Python
object owned by the telemetry hub, exactly like the TCP ``SharedTcb``
region — so ``Kernel.crash()``, which tears down every piece of
kernel-volatile state, cannot touch it.  When something terminal
happens (a kernel crash, an involuntary ASH abort, a ``ProtocolError``)
the ring is dumped as a schema-validated JSON post-mortem: the last
``capacity`` events leading up to the failure, without a re-run.

Everything is deterministic and telemetry-gated: with the hub disabled,
``record``/``dump`` are one branch each and no state changes.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .hub import Telemetry

__all__ = [
    "FLIGHT_BUNDLE_SCHEMA",
    "FLIGHT_SCHEMA",
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
]

FLIGHT_SCHEMA = "repro-flightrec"
FLIGHT_SCHEMA_VERSION = 1
#: a run's post-mortems bundled into one sidecar (same version)
FLIGHT_BUNDLE_SCHEMA = "repro-flightrec-bundle"

#: events retained in the ring (older ones age out, counted)
DEFAULT_CAPACITY = 256

#: post-mortems retained per node (a chaos sweep can dump many; the
#: first ones are kept — they describe the *original* failure)
MAX_POSTMORTEMS = 8


class FlightRecorder:
    """Bounded event ring + post-mortem dumps for one node."""

    def __init__(self, telemetry: "Telemetry",
                 capacity: int = DEFAULT_CAPACITY):
        self.telemetry = telemetry
        self.capacity = capacity
        self.events: deque[dict] = deque(maxlen=capacity)
        self.recorded = 0          #: total events ever recorded
        self.dumps = 0             #: total post-mortems ever dumped
        self.postmortems: list[dict] = []

    @property
    def aged_out(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.recorded - len(self.events)

    def resize(self, capacity: int) -> None:
        """Change the ring capacity in place.

        Shrinking keeps the *newest* events (the deque drops from the
        left), matching what a smaller ring would have retained; growing
        cannot resurrect aged-out events.  ``recorded``/``aged_out``
        accounting is preserved either way.
        """
        if capacity < 1:
            raise ValueError(f"flight ring capacity must be >= 1: {capacity}")
        if capacity == self.capacity:
            return
        self.capacity = capacity
        self.events = deque(self.events, maxlen=capacity)

    def record(self, kind: str, t: int, **detail) -> None:
        """Append one event (no-op while telemetry is disabled)."""
        if not self.telemetry.enabled:
            return
        event = {"t": t, "kind": kind}
        event.update(detail)
        self.events.append(event)
        self.recorded += 1

    def dump(self, reason: str, t: int, **detail) -> Optional[dict]:
        """Snapshot the ring as a post-mortem document.

        Returns the document (also retained in ``postmortems``, first
        :data:`MAX_POSTMORTEMS` kept), or None while disabled.
        """
        tel = self.telemetry
        if not tel.enabled:
            return None
        self.dumps += 1
        doc = {
            "schema": FLIGHT_SCHEMA,
            "version": FLIGHT_SCHEMA_VERSION,
            "node": tel.source,
            "reason": reason,
            "sim_time_ps": t,
            "recorded": self.recorded,
            "aged_out": self.aged_out,
            "events": [dict(e) for e in self.events],
        }
        if detail:
            doc["detail"] = detail
        if len(self.postmortems) < MAX_POSTMORTEMS:
            self.postmortems.append(doc)
        return doc

    def snapshot(self) -> dict:
        """The summary block for the node's metrics sidecar."""
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "aged_out": self.aged_out,
            "dumps": self.dumps,
            "postmortems_retained": len(self.postmortems),
        }
