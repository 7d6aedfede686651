"""Packet-lifecycle spans.

Every frame a NIC DMAs into memory gets a :class:`Span` (stashed on the
receive descriptor's ``meta``) that accumulates ``(stage, time)`` events
as the message moves through the delivery hierarchy:

    nic_rx -> demux -> {kernel_handler | sandbox_entry -> ash_run |
    upcall | copy -> ring_enqueue -> app_consume} -> nic_tx

Stage names are not a closed set — protocol libraries add their own
(``udp_deliver``, ``tcp_segment``).

When a span finishes, the tracker feeds the deltas between consecutive
events into per-stage latency histograms, so "where does receive-path
time go" falls out of any telemetry-enabled run without bespoke timing
code (the measurement the paper's Tables I-VI were hand-built to take).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from .metrics import US_BUCKETS

if TYPE_CHECKING:  # pragma: no cover
    from .hub import Telemetry

__all__ = ["Span", "SpanTracker"]

#: spans retained in full after finishing; beyond this only counts grow
MAX_RETAINED = 20_000


class Span:
    """One message's trip through the node."""

    __slots__ = ("span_id", "name", "start", "events", "outcome",
                 "trace_id", "trace_src", "emits")

    def __init__(self, span_id: int, name: str, start: int):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.events: list[tuple[str, int]] = []
        self.outcome: Optional[str] = None
        #: trace context adopted from the incoming frame (cross-node
        #: stitching: the sender minted this id at transmit time)
        self.trace_id: Optional[int] = None
        self.trace_src: Optional[str] = None
        #: trace ids of frames transmitted while this span was the
        #: node's active delivery, with their tx times — the causal
        #: request -> reply edges
        self.emits: list[tuple[int, int]] = []

    @property
    def finished(self) -> bool:
        return self.outcome is not None

    def stage(self, stage: str, t: int) -> None:
        """Record a stage event at simulation time ``t`` (ticks)."""
        if self.outcome is None:
            self.events.append((stage, t))

    def stage_names(self) -> list[str]:
        return [s for s, _t in self.events]

    def duration(self) -> int:
        if not self.events:
            return 0
        return self.events[-1][1] - self.start

    def snapshot(self) -> dict:
        out = {
            "id": self.span_id,
            "name": self.name,
            "start_ps": self.start,
            "outcome": self.outcome,
            "events": [[s, t] for s, t in self.events],
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
            out["trace_src"] = self.trace_src
        if self.emits:
            out["emits"] = [[tid, t] for tid, t in self.emits]
        return out


class SpanTracker:
    """Creates, finishes and aggregates spans for one node."""

    def __init__(self, telemetry: "Telemetry"):
        self.telemetry = telemetry
        self.spans: list[Span] = []
        self.dropped = 0
        self.finished = 0
        self._next_id = 1
        #: the span of the message this node is currently delivering
        #: (set by the kernel around _deliver and by protocol libraries
        #: around segment processing) so transmit paths can attribute
        #: outgoing trace ids to their causal parent
        self.active: Optional[Span] = None
        #: flow starts with no active span (a fresh app-initiated send):
        #: (trace_id, tx_time) pairs, rendered on the node's tid 0
        self.tx_flows: list[tuple[int, int]] = []
        #: stage -> its ``stage.latency_us`` histogram, bound at first use
        self._stage_hists: dict = {}

    def begin(self, name: str, t: int) -> Span:
        span = Span(self._next_id, name, t)
        self._next_id += 1
        if len(self.spans) < MAX_RETAINED:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def note_tx_flow(self, trace_id: int, t: int) -> None:
        """Record one outgoing message's flow start on this node.

        Attributed to the active span when there is one (the message is
        causally a reply); otherwise to the node itself (tid 0).
        """
        span = self.active
        if span is not None and not span.finished:
            span.emits.append((trace_id, t))
        elif len(self.tx_flows) < MAX_RETAINED:
            self.tx_flows.append((trace_id, t))
        else:
            self.dropped += 1

    def finish(self, span: Span, t: int, outcome: str = "done") -> None:
        """Close the span; safe to call twice (the first outcome wins)."""
        if span.outcome is not None:
            return
        span.outcome = outcome
        self.finished += 1
        tel = self.telemetry
        if not tel.enabled:
            return
        reg = tel.registry
        reg.histogram("span.duration_us").observe(span.duration() / 1e6)
        prev = span.start
        hists = self._stage_hists
        for stage, at in span.events:
            hist = hists.get(stage)
            if hist is None:
                hist = hists[stage] = reg.histogram(
                    "stage.latency_us", buckets=US_BUCKETS, stage=stage)
            hist.observe((at - prev) / 1e6)
            prev = at
        tel.flight.record("span", t, name=span.name, outcome=outcome,
                          trace=span.trace_id)

    def snapshot(self, include_events: bool = True) -> dict:
        out = {
            "created": self._next_id - 1,
            "finished": self.finished,
            "open": sum(1 for s in self.spans if not s.finished),
            "dropped": self.dropped,
        }
        if include_events:
            out["records"] = [s.snapshot() for s in self.spans]
        return out
