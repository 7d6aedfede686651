"""Telemetry exporters: JSON snapshots, Chrome trace_event, text tables.

Three consumers, one schema:

* **JSON snapshot** (``SCHEMA``/``SCHEMA_VERSION``) — the metrics
  sidecar benchmarks write next to their results JSON.
  ``benchmarks/check_metrics_schema.py`` validates it against
  :data:`~repro.telemetry.metrics.DECLARED`, so neither an exporter's
  shape nor an undeclared metric can drift in silently.
* **Chrome trace_event** — load the file in ``chrome://tracing`` (or
  Perfetto) and see every packet's lifecycle as nested slices per node.
* **text table** — a quick human-readable dump for terminals and tests.

Everything here is pure data-shuffling over already-deterministic
snapshots: identical runs export identical bytes.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .hub import Telemetry

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "CHROME_SCHEMA",
    "node_snapshot",
    "merge_snapshots",
    "to_chrome_trace",
    "format_table",
    "write_json",
]

SCHEMA = "repro-telemetry"
SCHEMA_VERSION = 1
CHROME_SCHEMA = "repro-telemetry-chrome"


def node_snapshot(tel: "Telemetry", include_span_events: bool = True) -> dict:
    """One node's full telemetry state as a JSON-serializable dict."""
    out = {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "source": tel.source,
        "sim_time_ps": tel.engine.now,
        "enabled": tel.enabled,
        "metrics": tel.registry.snapshot(),
        "spans": tel.spans.snapshot(include_events=include_span_events),
    }
    # optional blocks: only nodes that touched the subsystem carry them
    if tel._slo is not None:
        out["slo"] = tel._slo.snapshot()
    if tel._flight is not None:
        out["flight"] = tel._flight.snapshot()
    return out


def merge_snapshots(snaps: Iterable[dict]) -> dict:
    """The multi-node envelope benchmarks write as their sidecar.

    Refuses to merge snapshots from different schema versions: a silent
    mixed-version envelope would validate as whichever version the
    outer document claims while half its nodes mean something else.
    """
    nodes = list(snaps)
    for i, node in enumerate(nodes):
        schema = node.get("schema")
        version = node.get("version")
        if schema != SCHEMA or version != SCHEMA_VERSION:
            raise ValueError(
                f"schema-version skew: node[{i}] "
                f"({node.get('source', '?')!r}) carries "
                f"{schema!r} v{version!r}, this exporter writes "
                f"{SCHEMA!r} v{SCHEMA_VERSION!r}"
            )
    return {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "nodes": nodes,
    }


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------

def to_chrome_trace(tels: Iterable["Telemetry"]) -> dict:
    """Export span stages as Chrome trace events.

    Each node becomes a process; each span becomes a thread within it,
    its stages rendered as complete ("ph": "X") slices spanning the time
    since the previous stage.  Timestamps are microseconds, as the
    format requires.

    Trace context stitches the nodes together: every transmitted
    message emits a flow start (``ph:"s"``) on its sender — bound to
    the delivering span when the message was a reply, to the node
    otherwise — and a flow finish (``ph:"f"``) on the receiver span
    that adopted the same trace id, so chrome://tracing draws the
    cross-node causal arrows.
    """
    events: list[dict] = []
    for pid, tel in enumerate(tels, start=1):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": tel.source},
        })
        for span in tel.spans.spans:
            prev = span.start
            for stage, at in span.events:
                events.append({
                    "name": stage,
                    "cat": "packet",
                    "ph": "X",
                    "pid": pid,
                    "tid": span.span_id,
                    "ts": prev / 1e6,        # ps -> us
                    "dur": (at - prev) / 1e6,
                    "args": {"span": span.name,
                             "outcome": span.outcome or "open"},
                })
                prev = at
            if span.trace_id is not None:
                events.append({
                    "name": "msg",
                    "cat": "flow",
                    "ph": "f",
                    "bp": "e",
                    "id": span.trace_id,
                    "pid": pid,
                    "tid": span.span_id,
                    "ts": span.start / 1e6,
                    "args": {"from": span.trace_src},
                })
            for trace_id, at in span.emits:
                events.append({
                    "name": "msg",
                    "cat": "flow",
                    "ph": "s",
                    "id": trace_id,
                    "pid": pid,
                    "tid": span.span_id,
                    "ts": at / 1e6,
                })
        for trace_id, at in tel.spans.tx_flows:
            events.append({
                "name": "msg",
                "cat": "flow",
                "ph": "s",
                "id": trace_id,
                "pid": pid,
                "tid": 0,
                "ts": at / 1e6,
            })
    return {
        "schema": CHROME_SCHEMA,
        "version": SCHEMA_VERSION,
        "displayTimeUnit": "ms",
        "traceEvents": events,
    }


# ---------------------------------------------------------------------------
# human-readable dump
# ---------------------------------------------------------------------------

def _label_str(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def format_table(snap: dict) -> str:
    """Render one node snapshot as aligned text."""
    lines = [f"telemetry[{snap['source']}] @ {snap['sim_time_ps'] / 1e6:.3f}us"]
    metrics = snap["metrics"]
    rows: list[tuple[str, str]] = []
    for c in metrics["counters"]:
        rows.append((c["name"] + _label_str(c["labels"]), str(c["value"])))
    for g in metrics["gauges"]:
        rows.append((g["name"] + _label_str(g["labels"]), str(g["value"])))
    for h in metrics["histograms"]:
        mean = h["sum"] / h["count"] if h["count"] else 0.0
        rows.append((
            h["name"] + _label_str(h["labels"]),
            f"n={h['count']} mean={mean:.3f} max={h['max']:.3f}",
        ))
    width = max((len(name) for name, _ in rows), default=0)
    for name, value in rows:
        lines.append(f"  {name:<{width}}  {value}")
    spans = snap["spans"]
    lines.append(
        f"  spans: created={spans['created']} finished={spans['finished']} "
        f"open={spans['open']} dropped={spans['dropped']}"
    )
    return "\n".join(lines)


def write_json(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
