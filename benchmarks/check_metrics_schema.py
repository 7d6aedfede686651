#!/usr/bin/env python3
"""Validate telemetry sidecar files against the versioned export schema.

Usage::

    python benchmarks/check_metrics_schema.py [FILES...]

Without arguments, every ``*.telemetry.json`` / ``*.trace.json`` /
``*.postmortem.json`` under ``benchmarks/results/`` is checked.  Exits
nonzero on any violation.  The test suite imports
:func:`validate_metrics` / :func:`validate_chrome` /
:func:`validate_postmortem` directly, so exporter drift fails CI rather
than silently producing unreadable sidecars.

``KNOWN_METRICS`` is the exporter schema proper: the complete registry
of metric names the source tree emits, each pinned to its kind.
``benchmarks/check_metrics_lint.py`` cross-checks it against the actual
``counter(``/``gauge(``/``histogram(`` call sites and collectors'
``total(`` writes in ``src/`` both ways, so the registry can neither
rot nor silently grow.

Stdlib only — this is structural validation, not jsonschema.
"""

from __future__ import annotations

import glob
import json
import os
import sys

SCHEMA = "repro-telemetry"
CHROME_SCHEMA = "repro-telemetry-chrome"
FLIGHT_SCHEMA = "repro-flightrec"
FLIGHT_BUNDLE_SCHEMA = "repro-flightrec-bundle"
SUPPORTED_VERSIONS = (1,)

_NUM = (int, float)

#: every metric the source tree emits, pinned to its export kind.
#: Exporting one of these under the wrong block is exporter drift and
#: fails CI; emitting a metric absent from this registry (or listing
#: one no call site emits) fails the metrics lint.
KNOWN_METRICS = {
    # event-engine dispatch ledger (sim/engine.py, collected)
    "sim.calendar.scheduled": "counters",
    "sim.calendar.fired": "counters",
    "sim.calendar.cancelled": "counters",
    "sim.calendar.inlined": "counters",
    "sim.calendar.tombstones_popped": "counters",
    "sim.calendar.pending": "gauges",
    "sim.calendar.tombstones": "gauges",
    # fault-injection plane (sim/faults.py)
    "faults.injected": "counters",
    "faults.ledger": "gauges",
    # NIC device counters (hw/nic/base.py)
    "nic.tx_frames": "counters",
    "nic.tx_bytes": "counters",
    "nic.rx_frames": "counters",
    "nic.rx_bytes": "counters",
    "nic.rx_dropped": "counters",
    # receive-side scaling dispatch stage (hw/nic/rss.py; the NIC
    # collects it)
    "rss.steered": "counters",
    "rss.migrations": "counters",
    "rss.flows": "gauges",
    # per-core rx rings + batched NIC→kernel handoff
    # (hw/nic/base.py collected, kernel/kernel.py _rx_drain)
    "core.ring_depth": "gauges",
    "core.ring_peak_depth": "gauges",
    "core.rx_batches": "counters",
    "core.batch_frames": "histograms",
    # kernel receive path (kernel/kernel.py)
    "kernel.rx_interrupts": "counters",
    "kernel.demux_misses": "counters",
    "kernel.demux_us": "histograms",
    "kernel.livelock_deferrals": "counters",
    "copy.bytes": "counters",
    "copy.cycles": "counters",
    # crash/restart recovery plane (kernel/kernel.py crash()/reboot())
    "crash.crashes": "counters",
    "crash.recoveries": "counters",
    "crash.lost_messages": "counters",
    "crash.filters_reinstalled": "counters",
    "crash.ash_reinstalls": "counters",
    # memory-pressure and CPU-contention seams (sim/faults.py)
    "mem.alloc_failures": "counters",
    "cpu.contention_cycles": "counters",
    # delivery-hierarchy invariant (kernel/kernel.py _note_delivery)
    "degradation.order_violations": "counters",
    # packet filter engine (kernel/dpf.py)
    "dpf.inserts": "counters",
    "dpf.matches": "counters",
    "dpf.misses": "counters",
    "dpf.table_size": "gauges",
    "dpf.tree_depth": "gauges",
    # scheduler (kernel/scheduler.py)
    "sched.context_switches": "counters",
    "sched.packet_boosts": "counters",
    # upcalls (kernel/upcall.py)
    "upcall.invocations": "counters",
    "upcall.faults": "counters",
    "upcall.cycles_total": "counters",
    # ASH runtime (ash/system.py)
    "ash.downloads": "counters",
    "ash.invocations": "counters",
    "ash.involuntary_aborts": "counters",
    "ash.voluntary_aborts": "counters",
    "ash.abort_fallbacks": "counters",
    "ash.cycles_total": "counters",
    "ash.cycles": "histograms",
    "ash.sandbox_overhead_cycles_est": "counters",
    "ash.sandbox_added_insns": "gauges",
    "ash.budget_remaining_cycles": "gauges",
    # multi-tenant isolation plane (ash/tenancy.py)
    "tenant.admitted": "counters",
    "tenant.admitted_bytes": "counters",
    "tenant.throttled": "counters",
    "tenant.dropped": "counters",
    "tenant.cycle_throttled": "counters",
    "tenant.cycles_used": "counters",
    "tenant.reclaims": "counters",
    "tenant.quota_violations": "counters",
    "tenant.installs_refused": "counters",
    "tenant.kills": "counters",
    "tenant.order_violations": "counters",
    # VCODE JIT (vcode/jit.py, vcode/vm.py)
    "vcode.jit.compile_cycles": "counters",
    "vcode.jit.cache_hits": "counters",
    "vcode.jit.cache_misses": "counters",
    "vcode.jit.deopts": "counters",
    # DILP integrated-layer engine (pipes/compiler.py)
    "dilp.runs": "counters",
    "dilp.bytes": "counters",
    "dilp.cycles": "counters",
    "dilp.saved_cycles": "counters",
    # protocol libraries (net/stack.py, net/udp.py, net/tcp/tcp.py)
    "net.tx_frames": "counters",
    "udp.tx_datagrams": "counters",
    "udp.rx_datagrams": "counters",
    "udp.checksum_failures": "counters",
    "udp.malformed": "counters",
    "tcp.tx_segments": "counters",
    "tcp.rx_segments": "counters",
    "tcp.checksum_failures": "counters",
    "tcp.retransmits": "counters",
    "tcp.fast_retransmits": "counters",
    # congestion control + SACK (net/tcp/tcp.py)
    "tcp.cwnd": "gauges",
    "tcp.ssthresh": "gauges",
    "tcp.rto_backoffs": "counters",
    "tcp.fast_recovery.entries": "counters",
    "tcp.fast_recovery.exits": "counters",
    "tcp.sack.blocks_tx": "counters",
    "tcp.sack.blocks_rx": "counters",
    "tcp.sack.sacked_bytes": "counters",
    "tcp.sack.ooo_queued": "counters",
    "tcp.sack.selective_rexmits": "counters",
    # data-touching operations (net/datapath.py)
    "datapath.bytes": "counters",
    "datapath.cycles": "counters",
    # telemetry's own machinery (telemetry/hub.py, telemetry/spans.py)
    "trace.events": "counters",
    "span.finished": "counters",
    "span.duration_us": "histograms",
    "stage.latency_us": "histograms",
    # per-flow SLO plane (telemetry/slo.py)
    "flow.latency_us": "histograms",
    "flow.goodput_bytes": "counters",
    "flow.tx_segments": "counters",
    "flow.rx_segments": "counters",
    "flow.losses": "counters",
    "flow.retransmits": "counters",
    "flow.aborts": "counters",
    "flow.recoveries": "counters",
    "slo.violations": "counters",
    # live-operations plane: versioned installs + canary rollouts
    # (ash/system.py install_version, ash/liveops.py RolloutController)
    "liveops.installs": "counters",
    "liveops.rollouts": "counters",
    "liveops.swaps": "counters",
    "liveops.promotions": "counters",
    "liveops.rollbacks": "counters",
    "liveops.guard_trips": "counters",
    "liveops.canary_flows": "gauges",
}

#: historical alias — tests and tools pinned kinds through this name
WELL_KNOWN_KINDS = KNOWN_METRICS


def _check(errors: list[str], cond: bool, msg: str) -> bool:
    if not cond:
        errors.append(msg)
    return cond


def _validate_labels(errors: list[str], where: str, labels) -> None:
    if not _check(errors, isinstance(labels, dict), f"{where}: labels must be an object"):
        return
    for key in labels:
        _check(errors, isinstance(key, str), f"{where}: label key {key!r} must be a string")


def _validate_metrics_block(errors: list[str], where: str, metrics) -> None:
    if not _check(errors, isinstance(metrics, dict), f"{where}: metrics must be an object"):
        return
    for kind in ("counters", "gauges", "histograms"):
        items = metrics.get(kind)
        if not _check(errors, isinstance(items, list), f"{where}: metrics.{kind} must be a list"):
            continue
        for i, item in enumerate(items):
            w = f"{where}.{kind}[{i}]"
            if not _check(errors, isinstance(item, dict), f"{w}: must be an object"):
                continue
            _check(errors, isinstance(item.get("name"), str), f"{w}: missing string 'name'")
            expected_kind = KNOWN_METRICS.get(item.get("name"))
            if expected_kind is not None:
                _check(errors, kind == expected_kind,
                       f"{w}: {item.get('name')!r} must be exported under "
                       f"{expected_kind!r}, found under {kind!r}")
            _validate_labels(errors, w, item.get("labels", {}))
            if kind == "histograms":
                for key in ("count", "sum", "max"):
                    _check(errors, isinstance(item.get(key), _NUM), f"{w}: missing numeric {key!r}")
                buckets = item.get("buckets")
                counts = item.get("counts")
                if _check(errors, isinstance(buckets, list), f"{w}: missing 'buckets' list") and \
                        _check(errors, isinstance(counts, list), f"{w}: missing 'counts' list"):
                    # the overflow bucket is explicit: bounds end with
                    # +inf and pair 1:1 with counts — no special cases
                    _check(errors, len(counts) == len(buckets),
                           f"{w}: counts must pair 1:1 with buckets "
                           f"({len(counts)} vs {len(buckets)})")
                    _check(errors, bool(buckets) and buckets[-1] == float("inf"),
                           f"{w}: last bucket bound must be +inf")
                    _check(errors, list(buckets) == sorted(buckets),
                           f"{w}: bucket bounds must be sorted")
            else:
                _check(errors, isinstance(item.get("value"), _NUM), f"{w}: missing numeric 'value'")


def _validate_spans_block(errors: list[str], where: str, spans) -> None:
    if not _check(errors, isinstance(spans, dict), f"{where}: spans must be an object"):
        return
    for key in ("created", "finished", "open", "dropped"):
        _check(errors, isinstance(spans.get(key), int), f"{where}: spans.{key} must be an int")
    for i, rec in enumerate(spans.get("records", [])):
        w = f"{where}.records[{i}]"
        if not _check(errors, isinstance(rec, dict), f"{w}: must be an object"):
            continue
        _check(errors, isinstance(rec.get("id"), int), f"{w}: missing int 'id'")
        _check(errors, isinstance(rec.get("name"), str), f"{w}: missing string 'name'")
        _check(errors, isinstance(rec.get("start_ps"), int), f"{w}: missing int 'start_ps'")
        if "trace_id" in rec:
            _check(errors, isinstance(rec["trace_id"], int),
                   f"{w}: 'trace_id' must be an int")
            _check(errors, isinstance(rec.get("trace_src"), str),
                   f"{w}: trace context needs a string 'trace_src'")
        for j, emit in enumerate(rec.get("emits", [])):
            _check(errors, isinstance(emit, list) and len(emit) == 2
                   and all(isinstance(x, int) for x in emit),
                   f"{w}.emits[{j}]: must be an [trace_id, time] int pair")
        events = rec.get("events")
        if not _check(errors, isinstance(events, list), f"{w}: missing 'events' list"):
            continue
        prev = rec.get("start_ps", 0)
        for j, event in enumerate(events):
            ew = f"{w}.events[{j}]"
            if not _check(errors, isinstance(event, list) and len(event) == 2,
                          f"{ew}: must be a [stage, time] pair"):
                continue
            stage, at = event
            _check(errors, isinstance(stage, str), f"{ew}: stage must be a string")
            if _check(errors, isinstance(at, int), f"{ew}: time must be an int"):
                _check(errors, at >= prev, f"{ew}: stage times must be monotonic")
                prev = at


def _validate_slo_block(errors: list[str], where: str, slo) -> None:
    if not _check(errors, isinstance(slo, dict), f"{where}: slo must be an object"):
        return
    _check(errors, isinstance(slo.get("rules"), list), f"{where}: slo.rules must be a list")
    flows = slo.get("flows")
    if _check(errors, isinstance(flows, dict), f"{where}: slo.flows must be an object"):
        for label, q in flows.items():
            w = f"{where}.flows[{label}]"
            if not _check(errors, isinstance(q, dict), f"{w}: must be an object"):
                continue
            for key in ("p50_us", "p99_us", "p999_us"):
                _check(errors, isinstance(q.get(key), _NUM), f"{w}: missing numeric {key!r}")
    for i, v in enumerate(slo.get("violations", [])):
        w = f"{where}.violations[{i}]"
        if not _check(errors, isinstance(v, dict), f"{w}: must be an object"):
            continue
        _check(errors, isinstance(v.get("t"), int), f"{w}: missing int 't'")
        for key in ("rule", "flow", "metric"):
            _check(errors, isinstance(v.get(key), str), f"{w}: missing string {key!r}")


def _validate_flight_block(errors: list[str], where: str, flight) -> None:
    if not _check(errors, isinstance(flight, dict), f"{where}: flight must be an object"):
        return
    for key in ("capacity", "recorded", "aged_out", "dumps",
                "postmortems_retained"):
        _check(errors, isinstance(flight.get(key), int),
               f"{where}: flight.{key} must be an int")


def validate_metrics(doc) -> list[str]:
    """Structural errors in a ``repro-telemetry`` document (metrics sidecar)."""
    errors: list[str] = []
    if not _check(errors, isinstance(doc, dict), "document must be an object"):
        return errors
    _check(errors, doc.get("schema") == SCHEMA,
           f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    _check(errors, doc.get("version") in SUPPORTED_VERSIONS,
           f"unsupported version {doc.get('version')!r}")
    # both shapes are valid: a multi-node envelope, or one node snapshot
    nodes = doc.get("nodes") if "nodes" in doc else [doc]
    if not _check(errors, isinstance(nodes, list), "'nodes' must be a list"):
        return errors
    for i, node in enumerate(nodes):
        where = f"nodes[{i}]"
        if not _check(errors, isinstance(node, dict), f"{where}: must be an object"):
            continue
        _check(errors, isinstance(node.get("source"), str), f"{where}: missing string 'source'")
        _check(errors, isinstance(node.get("sim_time_ps"), int),
               f"{where}: missing int 'sim_time_ps'")
        _validate_metrics_block(errors, where, node.get("metrics"))
        _validate_spans_block(errors, where, node.get("spans"))
        if "slo" in node:
            _validate_slo_block(errors, where, node["slo"])
        if "flight" in node:
            _validate_flight_block(errors, where, node["flight"])
    return errors


def validate_chrome(doc) -> list[str]:
    """Structural errors in a ``repro-telemetry-chrome`` trace document."""
    errors: list[str] = []
    if not _check(errors, isinstance(doc, dict), "document must be an object"):
        return errors
    _check(errors, doc.get("schema") == CHROME_SCHEMA,
           f"schema must be {CHROME_SCHEMA!r}, got {doc.get('schema')!r}")
    _check(errors, doc.get("version") in SUPPORTED_VERSIONS,
           f"unsupported version {doc.get('version')!r}")
    events = doc.get("traceEvents")
    if not _check(errors, isinstance(events, list), "'traceEvents' must be a list"):
        return errors
    for i, event in enumerate(events):
        w = f"traceEvents[{i}]"
        if not _check(errors, isinstance(event, dict), f"{w}: must be an object"):
            continue
        _check(errors, isinstance(event.get("name"), str), f"{w}: missing string 'name'")
        ph = event.get("ph")
        _check(errors, ph in ("X", "M", "i", "B", "E", "s", "f", "t"),
               f"{w}: unsupported phase {ph!r}")
        _check(errors, isinstance(event.get("pid"), int), f"{w}: missing int 'pid'")
        _check(errors, isinstance(event.get("tid"), int), f"{w}: missing int 'tid'")
        if ph in ("X", "i", "s", "f", "t"):
            _check(errors, isinstance(event.get("ts"), _NUM), f"{w}: missing numeric 'ts'")
        if ph in ("s", "f", "t"):
            # flow events bind on (cat, name, id) across processes
            _check(errors, isinstance(event.get("id"), int), f"{w}: missing int 'id'")
            _check(errors, isinstance(event.get("cat"), str), f"{w}: missing string 'cat'")
        if ph == "X":
            dur = event.get("dur")
            if _check(errors, isinstance(dur, _NUM), f"{w}: missing numeric 'dur'"):
                _check(errors, dur >= 0, f"{w}: 'dur' must be non-negative")
    return errors


def validate_postmortem(doc) -> list[str]:
    """Structural errors in one ``repro-flightrec`` post-mortem."""
    errors: list[str] = []
    if not _check(errors, isinstance(doc, dict), "post-mortem must be an object"):
        return errors
    _check(errors, doc.get("schema") == FLIGHT_SCHEMA,
           f"schema must be {FLIGHT_SCHEMA!r}, got {doc.get('schema')!r}")
    _check(errors, doc.get("version") in SUPPORTED_VERSIONS,
           f"unsupported version {doc.get('version')!r}")
    for key in ("node", "reason"):
        _check(errors, isinstance(doc.get(key), str), f"missing string {key!r}")
    for key in ("sim_time_ps", "recorded", "aged_out"):
        _check(errors, isinstance(doc.get(key), int), f"missing int {key!r}")
    events = doc.get("events")
    if not _check(errors, isinstance(events, list), "missing 'events' list"):
        return errors
    prev = None
    for i, event in enumerate(events):
        w = f"events[{i}]"
        if not _check(errors, isinstance(event, dict), f"{w}: must be an object"):
            continue
        _check(errors, isinstance(event.get("kind"), str), f"{w}: missing string 'kind'")
        t = event.get("t")
        if _check(errors, isinstance(t, int), f"{w}: missing int 't'"):
            if prev is not None:
                _check(errors, t >= prev, f"{w}: event times must be monotonic")
            prev = t
    return errors


def validate_postmortem_bundle(doc) -> list[str]:
    """Structural errors in a ``repro-flightrec-bundle`` sidecar."""
    errors: list[str] = []
    if not _check(errors, isinstance(doc, dict), "document must be an object"):
        return errors
    _check(errors, doc.get("schema") == FLIGHT_BUNDLE_SCHEMA,
           f"schema must be {FLIGHT_BUNDLE_SCHEMA!r}, got {doc.get('schema')!r}")
    postmortems = doc.get("postmortems")
    if not _check(errors, isinstance(postmortems, list), "missing 'postmortems' list"):
        return errors
    for i, pm in enumerate(postmortems):
        for err in validate_postmortem(pm):
            errors.append(f"postmortems[{i}]: {err}")
    return errors


def validate_file(path: str) -> list[str]:
    """Validate one sidecar file, dispatching on its 'schema' key."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read {path}: {exc}"]
    if not isinstance(doc, dict):
        return [f"{path}: document must be an object"]
    schema = doc.get("schema")
    if schema == SCHEMA:
        return validate_metrics(doc)
    if schema == CHROME_SCHEMA:
        return validate_chrome(doc)
    if schema == FLIGHT_SCHEMA:
        return validate_postmortem(doc)
    if schema == FLIGHT_BUNDLE_SCHEMA:
        return validate_postmortem_bundle(doc)
    return [f"{path}: unknown schema {schema!r}"]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        paths = argv
    else:
        results = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
        paths = sorted(
            glob.glob(os.path.join(results, "*.telemetry.json"))
            + glob.glob(os.path.join(results, "*.trace.json"))
            + glob.glob(os.path.join(results, "*.postmortem.json"))
        )
        if not paths:
            print("no telemetry sidecars found; nothing to check")
            return 0
    failed = 0
    for path in paths:
        errors = validate_file(path)
        if errors:
            failed += 1
            print(f"FAIL {path}")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"ok   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
