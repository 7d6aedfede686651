"""End-to-end telemetry for the reproduction: metrics, spans, exports.

The paper argues entirely through measurement — cycle-level breakdowns
of where receive-path time goes.  This package is the measurement layer
for our growing system: a per-node :class:`Telemetry` hub combining

* a **metrics registry** (counters / gauges / fixed-bucket histograms),
* **packet-lifecycle spans** (per-message stage timelines from NIC rx
  through demux, handlers, copies and replies),
* **exporters** (JSON snapshot, Chrome ``trace_event``, text tables).

Telemetry is off by default and free when off.  Turn it on for a whole
run with::

    from repro import telemetry
    with telemetry.session() as sess:
        run_workload()                  # builds nodes as usual
    doc = sess.export_metrics()         # every node born in the session

or per node with ``node.telemetry.enable()``.
"""

from __future__ import annotations

import contextlib
from typing import Optional

from .export import (
    CHROME_SCHEMA,
    SCHEMA,
    SCHEMA_VERSION,
    format_table,
    merge_snapshots,
    node_snapshot,
    to_chrome_trace,
    write_json,
)
from .flightrec import (
    FLIGHT_BUNDLE_SCHEMA,
    FLIGHT_SCHEMA,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
)
from .hub import Telemetry
from .metrics import (
    CYCLE_BUCKETS,
    LOG2_US_BUCKETS,
    US_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    hist_quantile,
)
from .slo import FlowStats, SloRule, SloTracker, flow_label
from .spans import MAX_RETAINED, Span, SpanTracker
from .tracecontext import TRACE_KEY, adopt_rx_context, attach_tx_context

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "SpanTracker",
    "SCHEMA",
    "SCHEMA_VERSION",
    "CHROME_SCHEMA",
    "FLIGHT_SCHEMA",
    "FLIGHT_SCHEMA_VERSION",
    "FLIGHT_BUNDLE_SCHEMA",
    "FlightRecorder",
    "SloRule",
    "SloTracker",
    "FlowStats",
    "flow_label",
    "TRACE_KEY",
    "attach_tx_context",
    "adopt_rx_context",
    "US_BUCKETS",
    "CYCLE_BUCKETS",
    "LOG2_US_BUCKETS",
    "hist_quantile",
    "MAX_RETAINED",
    "node_snapshot",
    "merge_snapshots",
    "to_chrome_trace",
    "format_table",
    "write_json",
    "session",
    "Session",
]

# -- run-wide configuration -------------------------------------------------
#
# Nodes are created deep inside workload functions, so benchmarks cannot
# hand a Telemetry object down by argument.  Instead the module keeps a
# default-enabled flag plus an optional active Session that collects
# every hub created while it is open.

_DEFAULT_ENABLED = False
_ACTIVE_SESSION: Optional["Session"] = None


def _default_enabled() -> bool:
    return _DEFAULT_ENABLED


def _register(tel: Telemetry) -> None:
    if _ACTIVE_SESSION is not None:
        _ACTIVE_SESSION._telemetries.append(tel)


class Session:
    """Collects every Telemetry hub created while the session is open.

    References are strong: a hub created inside the session stays
    exportable after the workload that built it returns, regardless of
    garbage-collector timing (exports must be byte-stable, and hubs
    are only held for the session's bounded lifetime).
    """

    def __init__(self):
        self._telemetries: list[Telemetry] = []

    @property
    def telemetries(self) -> list[Telemetry]:
        return list(self._telemetries)

    def snapshots(self, include_span_events: bool = True) -> list[dict]:
        return [t.snapshot(include_span_events=include_span_events)
                for t in self.telemetries]

    def export_metrics(self, include_span_events: bool = True) -> dict:
        return merge_snapshots(self.snapshots(include_span_events))

    def export_chrome(self) -> dict:
        return to_chrome_trace(self.telemetries)

    def export_postmortems(self) -> list[dict]:
        """Every flight-recorder post-mortem dumped during the session,
        in node order (empty if nothing failed)."""
        out: list[dict] = []
        for tel in self.telemetries:
            if tel._flight is not None:
                out.extend(tel._flight.postmortems)
        return out


@contextlib.contextmanager
def session(enabled: bool = True):
    """Scope within which new nodes get ``enabled`` telemetry, collected.

    Nested sessions stack; the previous default/collector are restored
    on exit.  Pass ``enabled=False`` for a no-op session (the workload
    runs exactly as without telemetry — handy for CLI flags).
    """
    global _DEFAULT_ENABLED, _ACTIVE_SESSION
    prev_enabled, prev_session = _DEFAULT_ENABLED, _ACTIVE_SESSION
    sess = Session()
    _DEFAULT_ENABLED = enabled
    _ACTIVE_SESSION = sess if enabled else prev_session
    try:
        yield sess
    finally:
        _DEFAULT_ENABLED = prev_enabled
        _ACTIVE_SESSION = prev_session
