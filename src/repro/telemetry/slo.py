"""Per-flow SLO tracking: latency quantiles, health counters, rules.

Flows are TCP/UDP 4-tuples ``(local_ip, local_port, remote_ip,
remote_port)``.  Each flow gets

* a deterministic **log2-bucket latency histogram**
  (``flow.latency_us``, :data:`~repro.telemetry.metrics.LOG2_US_BUCKETS`)
  from which p50/p99/p999 are derivable from any snapshot via
  :func:`~repro.telemetry.metrics.hist_quantile`,
* **health counters** — ``flow.goodput_bytes``, ``flow.tx_segments`` /
  ``flow.rx_segments``, ``flow.losses`` (checksum-failed / corrupt
  segments), ``flow.retransmits``, ``flow.aborts`` — all riding the
  ordinary metrics registry so they appear in every sidecar,
* declarative **SLO rules** (:class:`SloRule`), evaluated at
  observation time: each breach increments the counted, labelled
  ``slo.violations{rule,flow}`` metric, appends a timestamped violation
  record, and lands in the node's flight recorder.

Everything is observation-driven and deterministic — no timers, no
sampling.  The ``flow.*`` counters are *pushed* (unlike the totals the
registry collects from component ledgers, DESIGN.md §6) because the
rules read them live, at the event that may breach a budget; each is
bound once per flow, and while the hub is disabled an entry point costs
its caller one call and one branch.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from .metrics import LOG2_US_BUCKETS, hist_quantile

if TYPE_CHECKING:  # pragma: no cover
    from .hub import Telemetry

__all__ = ["SloRule", "FlowStats", "SloTracker", "flow_label"]

#: violation records retained per node (the counter keeps exact totals)
MAX_VIOLATIONS = 1000


def flow_label(flow: tuple) -> str:
    """Render a 4-tuple as the stable label used on flow metrics."""
    lip, lport, rip, rport = flow
    return f"{lip:#010x}:{lport}->{rip:#010x}:{rport}"


class SloRule:
    """One declarative objective; unset thresholds are not checked.

    ``max_latency_us`` breaches per observation above the bound;
    ``max_retransmits`` / ``max_losses`` / ``max_aborts`` /
    ``max_recoveries`` (fast-recovery episodes — congestion events, a
    coarser health signal than raw retransmits) breach on every event
    past the cumulative budget (so the violation count tracks how far
    past the objective the flow went).
    """

    __slots__ = ("name", "max_latency_us", "max_retransmits",
                 "max_losses", "max_aborts", "max_recoveries")

    def __init__(self, name: str, max_latency_us: Optional[float] = None,
                 max_retransmits: Optional[int] = None,
                 max_losses: Optional[int] = None,
                 max_aborts: Optional[int] = None,
                 max_recoveries: Optional[int] = None):
        self.name = name
        self.max_latency_us = max_latency_us
        self.max_retransmits = max_retransmits
        self.max_losses = max_losses
        self.max_aborts = max_aborts
        self.max_recoveries = max_recoveries

    def describe(self) -> dict:
        out = {"name": self.name}
        for key in ("max_latency_us", "max_retransmits", "max_losses",
                    "max_aborts", "max_recoveries"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


class FlowStats:
    """Cached per-flow instruments + rule evaluation for one 4-tuple."""

    __slots__ = ("tracker", "flow", "label", "latency", "_goodput",
                 "_tx", "_rx", "_losses", "_retransmits", "_aborts",
                 "_recoveries")

    def __init__(self, tracker: "SloTracker", flow: tuple):
        self.tracker = tracker
        self.flow = flow
        self.label = flow_label(flow)
        reg = tracker.telemetry.registry
        self.latency = reg.histogram("flow.latency_us",
                                     buckets=LOG2_US_BUCKETS,
                                     flow=self.label)
        self._goodput = reg.counter("flow.goodput_bytes", flow=self.label)
        self._tx = reg.counter("flow.tx_segments", flow=self.label)
        self._rx = reg.counter("flow.rx_segments", flow=self.label)
        self._losses = reg.counter("flow.losses", flow=self.label)
        self._retransmits = reg.counter("flow.retransmits", flow=self.label)
        self._aborts = reg.counter("flow.aborts", flow=self.label)
        self._recoveries = reg.counter("flow.recoveries", flow=self.label)

    # -- observations --------------------------------------------------
    def observe_latency_us(self, v: float, t: int) -> None:
        tracker = self.tracker
        if not tracker.telemetry.enabled:
            return
        self.latency.observe(v)
        for rule in tracker.rules:
            if rule.max_latency_us is not None and v > rule.max_latency_us:
                tracker.violate(rule, self, t, "latency_us", v)

    def goodput(self, nbytes: int) -> None:
        self._goodput.inc(nbytes)

    def tx_segment(self, nbytes: int = 0) -> None:
        self._tx.inc()

    def rx_segment(self, nbytes: int = 0) -> None:
        self._rx.inc()

    def loss(self, t: int) -> None:
        self._counted_event(self._losses, t, "losses", "max_losses")

    def retransmit(self, t: int) -> None:
        self._counted_event(self._retransmits, t, "retransmits",
                            "max_retransmits")

    def abort(self, t: int) -> None:
        self._counted_event(self._aborts, t, "aborts", "max_aborts")

    def recovery(self, t: int) -> None:
        """One fast-recovery episode entered (a congestion event)."""
        self._counted_event(self._recoveries, t, "recoveries",
                            "max_recoveries")

    def _counted_event(self, counter, t: int, metric: str,
                       threshold_attr: str) -> None:
        tracker = self.tracker
        if not tracker.telemetry.enabled:
            return
        counter.inc()
        for rule in tracker.rules:
            bound = getattr(rule, threshold_attr)
            if bound is not None and counter.value > bound:
                tracker.violate(rule, self, t, metric, counter.value)

    # -- derived -------------------------------------------------------
    def quantiles(self) -> dict:
        """p50/p99/p999 of this flow's latency distribution, in us."""
        data = self.latency._data()
        return {
            "p50_us": hist_quantile(data, 0.50),
            "p99_us": hist_quantile(data, 0.99),
            "p999_us": hist_quantile(data, 0.999),
        }


class SloTracker:
    """Per-node flow table + rule set + violation ledger."""

    def __init__(self, telemetry: "Telemetry"):
        self.telemetry = telemetry
        self.flows: dict[tuple, FlowStats] = {}
        self.rules: list[SloRule] = []
        self.violations: list[dict] = []
        self.violations_dropped = 0

    def flow(self, flow: tuple) -> FlowStats:
        stats = self.flows.get(flow)
        if stats is None:
            stats = FlowStats(self, flow)
            self.flows[flow] = stats
        return stats

    def add_rule(self, rule: SloRule) -> SloRule:
        self.rules.append(rule)
        return rule

    def violate(self, rule: SloRule, stats: FlowStats, t: int,
                metric: str, value) -> None:
        tel = self.telemetry
        tel.registry.counter("slo.violations", rule=rule.name,
                             flow=stats.label).inc()
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append({
                "t": t,
                "rule": rule.name,
                "flow": stats.label,
                "metric": metric,
                "value": value,
            })
        else:
            self.violations_dropped += 1
        tel.flight.record("slo", t, rule=rule.name, flow=stats.label,
                          metric=metric, value=value)

    def snapshot(self) -> dict:
        """Deterministic block for the node's metrics sidecar."""
        return {
            "rules": [r.describe() for r in self.rules],
            "flows": {
                stats.label: stats.quantiles()
                for _flow, stats in sorted(self.flows.items())
            },
            "violations": list(self.violations),
            "violations_dropped": self.violations_dropped,
        }
