#!/usr/bin/env python3
"""Unified chaos-sweep driver: workload × fault-scenario × substrate.

One driver runs every live-operations scenario the crash plane promises
to survive, on both simulation substrates, and emits a single
schema-validated ``BENCH_liveops.json`` gated by
``check_bench_trend.py``.  The grid closes the crash-plane gaps the
earlier benches left open:

* **client-side crash** — ``NodeCrash`` on the *sender's* kernel
  mid-bulk-transfer (earlier benches only crashed the server);
* **crash during the TCP three-way handshake** — the server dies with
  the SYN in flight; the client's bounded connect retries re-establish
  after reboot (a permanently dead peer raises a 4-tuple-carrying
  ``ProtocolError``, pinned in ``tests/test_net_tcp.py``);
* **reboot storms under sustained load** — ``NodeCrash(repeat=N)``
  cycles the server through several crash/reboot rounds inside one
  transfer;
* **pinned recovery-latency upper bounds** — every crash cell measures
  reboot→first-delivery recovery time and the summary asserts each
  scenario's bound (``RECOVERY_BOUND_US``); earlier tests pinned only
  the degradation *order*.

The canary-rollout workload rides the same grid: a digest-divergent v2
must roll back (also with a mid-canary server crash — the rollout's
bindings ride the boot-record replay), an identical v2 must promote
even under link jitter, and every cell must be bit-identical across
substrates with zero lost messages and zero order violations.

The multi-tenant workload rides the grid too: a two-tenant
noisy-neighbor cell (victim bulk transfer vs. an admission-clipped
aggressor) with a *pinned containment bound* — the protected victim
must keep at least ``ISOLATION_BOUND_RATIO`` of its solo goodput and
deliver a bit-identical payload, asserted per cell like the recovery
bounds.

``--smoke`` (``plane_main``'s ``--quick``) runs a small corner of the
grid (one crash scenario per crashable workload, the two-tenant cell,
both substrates) — wired into tier 1 via ``tests/test_sweep_driver.py``,
writing outside the repo root so the committed full-grid baseline is
untouched.
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.bench.results import (on_both_substrates, plane_doc,  # noqa: E402
                                 plane_main)
from repro.bench.workloads import (canary_rollout,               # noqa: E402
                                   chaos_transfer,
                                   tenant_noisy_neighbor)

SCHEMA = "repro-liveops-sweep"
SCHEMA_VERSION = 1
SEED = 11

#: pinned recovery-latency upper bounds (µs from reboot to the first
#: post-reboot delivery), per crash scenario.  These are *declared
#: budgets* the sweep asserts, not measurements: raising one is a
#: conscious baseline change.  Bounds follow from the recovery
#: mechanism — TCP retransmission finds the rebooted node within one
#: backed-off RTO (20 ms base here), the canary client's next request
#: round lands immediately after reboot.
RECOVERY_BOUND_US = {
    "tcp_bulk/client_crash": 90_000.0,
    "tcp_bulk/handshake_crash": 90_000.0,
    "tcp_bulk/reboot_storm": 90_000.0,
    "canary/server_crash": 5_000.0,
}

#: pinned noisy-neighbor containment bound: the protected victim keeps
#: at least this fraction of its solo goodput no matter the aggressor's
#: offered load.  A declared budget like RECOVERY_BOUND_US — lowering
#: it is a conscious baseline change.
ISOLATION_BOUND_RATIO = {
    "tenant/noisy_neighbor": 0.9,
}


# ---------------------------------------------------------------------------
# workload runners (one cell = one substrate run)
# ---------------------------------------------------------------------------

def run_tcp_bulk(substrate: str, nbytes: int, **seams) -> dict:
    """One TCP bulk transfer under ``chaos_transfer``'s ``faults``
    schedule: a crash (of either node, possibly a storm) or link chaos."""
    tb, plane, xfer = chaos_transfer(nbytes, SEED, substrate=substrate,
                                     **seams)
    sk, ck = tb.server_kernel, tb.client_kernel
    recoveries_us = [                       # only the crashed node logs
        (rec["first_delivery_after_reboot"] - rec["reboot_at"]) / 1_000_000
        for rec in sk.crash_log + ck.crash_log
        if rec["first_delivery_after_reboot"] is not None
        and rec["reboot_at"] is not None
    ]
    elapsed_ps = xfer.delivered - xfer.accepted
    return {
        "digest": hashlib.sha256(xfer.got).hexdigest(),
        "elapsed_us": elapsed_ps / 1_000_000,
        "goodput_mbps": nbytes * 8 / (elapsed_ps / 1e12) / 1e6,
        "crashes": sk.crash_count + ck.crash_count,
        "recoveries": sk.recoveries + ck.recoveries,
        "recovery_us": max(recoveries_us) if recoveries_us else None,
        "lost_in_crash": sk.lost_messages + ck.lost_messages,
        "retransmits": (xfer.client.tcb.retransmits
                        + xfer.server.tcb.retransmits),
        "ledger": plane.ledger(),
        "delivery_outcomes": dict(sorted(sk.delivery_outcomes.items())),
        "order_violations": (sk.degradation_order_violations
                             + ck.degradation_order_violations),
    }


def run_canary(substrate: str, v2: str, crash: bool = False,
               faults: list = None) -> dict:
    return canary_rollout(
        substrate=substrate, v2=v2, crash_during_canary=crash,
        scenario=faults, fault_seed=SEED,
    )


def run_tenant(substrate: str, intensity_fps: int, total_kb: int) -> dict:
    """One protected two-tenant noisy-neighbor cell: the victim bulk
    transfer contended by an admission-clipped aggressor, plus the solo
    run that anchors the isolation ratio."""
    solo = tenant_noisy_neighbor(substrate=substrate, intensity_fps=0,
                                 protected=True, total_kb=total_kb)
    contended = tenant_noisy_neighbor(
        substrate=substrate, intensity_fps=intensity_fps,
        protected=True, total_kb=total_kb)
    out = dict(contended)
    out["solo_goodput_mbps"] = solo["goodput_mbps"]
    out["isolation_ratio"] = round(
        contended["goodput_mbps"] / solo["goodput_mbps"], 4)
    out["victim_intact"] = contended["payload_sha"] == solo["payload_sha"]
    return out


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------

def grid_cells(smoke: bool, nbytes: int) -> list[dict]:
    """The declarative grid: (workload, scenario, runner kwargs,
    expectations)."""
    tcp = [
        {"workload": "tcp_bulk", "scenario": "none", "kwargs": {}},
        {"workload": "tcp_bulk", "scenario": "client_crash",
         "kwargs": {"faults": [{"site": "crash", "target": "client_kernel",
                                "at_us": 1_500.0, "outage_us": 2_000.0}]},
         "expect_recovered": True},
        {"workload": "tcp_bulk", "scenario": "handshake_crash",
         "kwargs": {"faults": [{"site": "crash", "target": "server_kernel",
                                "at_us": 5.0, "outage_us": 2_000.0}]},
         "expect_recovered": True},
        {"workload": "tcp_bulk", "scenario": "reboot_storm",
         "kwargs": {"faults": [{"site": "crash", "target": "server_kernel",
                                "at_us": 1_500.0, "outage_us": 1_000.0,
                                "repeat": 3, "period_us": 8_000.0}]},
         "expect_recovered": True},
        {"workload": "tcp_bulk", "scenario": "link_chaos",
         "kwargs": {"faults": [{"site": "link", "target": "link",
                                "drop": 0.05, "corrupt": 0.02}]}},
    ]
    canary = [
        {"workload": "canary", "scenario": "none",
         "kwargs": {"v2": "divergent"}, "expect_state": "rolled_back"},
        {"workload": "canary", "scenario": "server_crash",
         "kwargs": {"v2": "divergent", "crash": True},
         "expect_state": "rolled_back", "expect_recovered": True},
        {"workload": "canary", "scenario": "link_jitter",
         "kwargs": {"v2": "identical",
                    "faults": [{"site": "link", "target": "link",
                                "delay_jitter_us": 20.0}]},
         "expect_state": "promoted"},
    ]
    tenant = [
        {"workload": "tenant", "scenario": "noisy_neighbor",
         "kwargs": {"intensity_fps": 60_000,
                    "total_kb": 48 if smoke else 96},
         "expect_isolated": True},
    ]
    if smoke:
        # the smoke corner: one crash scenario per crashable workload,
        # plus the two-tenant cell, on both substrates
        tcp = [c for c in tcp if c["scenario"] in ("none", "client_crash")]
        canary = [c for c in canary
                  if c["scenario"] in ("none", "server_crash")]
    for cell in tcp:
        cell["kwargs"]["nbytes"] = nbytes
    return tcp + canary + tenant


def run_cell(cell: dict) -> dict:
    """Run one grid cell on both substrates; returns the cell record."""
    runner = {"tcp_bulk": run_tcp_bulk, "canary": run_canary,
              "tenant": run_tenant}[cell["workload"]]
    fast, identical = on_both_substrates(runner, **cell["kwargs"])
    record = {
        "workload": cell["workload"],
        "scenario": cell["scenario"],
        "identical": identical,
        "observables": fast,
    }
    if "expect_state" in cell:
        record["expect_state"] = cell["expect_state"]
        record["state_ok"] = fast.get("state") == cell["expect_state"]
    if cell.get("expect_recovered"):
        record["recovered"] = bool(fast.get("recoveries"))
        bound = RECOVERY_BOUND_US.get(
            f"{cell['workload']}/{cell['scenario']}")
        if bound is not None:
            record["recovery_bound_us"] = bound
            record["recovery_within_bound"] = (
                fast.get("recovery_us") is not None
                and fast["recovery_us"] <= bound)
    if cell.get("expect_isolated"):
        bound = ISOLATION_BOUND_RATIO[
            f"{cell['workload']}/{cell['scenario']}"]
        record["isolation_bound"] = bound
        record["isolation_within_bound"] = (
            fast["victim_intact"] and fast["isolation_ratio"] >= bound)
    return record


def bench(smoke: bool) -> dict:
    nbytes = 16_000 if smoke else 48_000
    out = plane_doc("liveops", smoke, schema=SCHEMA, version=SCHEMA_VERSION,
                    seed=SEED, transfer_bytes=nbytes, grid=[])
    for cell in grid_cells(smoke, nbytes):
        record = run_cell(cell)
        out["grid"].append(record)
        obs = record["observables"]
        extras = []
        if obs.get("recovery_us") is not None:
            extras.append(f"recovery={obs['recovery_us']:.1f}us")
        if "state_ok" in record:
            extras.append(f"state={obs['state']}"
                          f"{'' if record['state_ok'] else ' (WRONG)'}")
        if "isolation_within_bound" in record:
            extras.append(
                f"isolation={obs['isolation_ratio']:.4f}"
                f"{'' if record['isolation_within_bound'] else ' (BROKEN)'}")
        print(f"  {record['workload']:>9s} × {record['scenario']:<16s} "
              f"ov={obs['order_violations']} "
              f"{'identical' if record['identical'] else 'DIVERGED'} "
              + " ".join(extras))

    recovery_bounds = {}
    isolation_ratios = {}
    for record in out["grid"]:
        obs = record.get("observables", {})
        if obs.get("recovery_us") is not None:
            key = f"{record['workload']}_{record['scenario']}_recovery_us"
            recovery_bounds[key] = obs["recovery_us"]
        if "isolation_ratio" in obs:
            key = f"{record['workload']}_{record['scenario']}" \
                  f"_isolation_ratio"
            isolation_ratios[key] = obs["isolation_ratio"]
    out["summary"] = {
        "cells": len(out["grid"]),
        "all_identical": all(r["identical"] for r in out["grid"]),
        "zero_order_violations": all(
            r["observables"]["order_violations"] == 0 for r in out["grid"]),
        "all_rollouts_correct": all(
            r.get("state_ok", True) for r in out["grid"]),
        "all_crashes_recovered": all(
            r.get("recovered", True) for r in out["grid"]),
        "all_recoveries_within_bounds": all(
            r.get("recovery_within_bound", True) for r in out["grid"]),
        "zero_canary_losses": all(
            r["observables"].get("lost_messages", 0) == 0
            for r in out["grid"] if r["workload"] == "canary"),
        "all_isolation_within_bounds": all(
            r.get("isolation_within_bound", True) for r in out["grid"]),
        "recovery_latencies": recovery_bounds,
        "isolation_ratios": isolation_ratios,
    }
    errors = validate_doc(out)
    if errors:
        raise RuntimeError("sweep document fails its own schema: "
                           + "; ".join(errors))
    return out


# ---------------------------------------------------------------------------
# schema validation (shared with tests/test_sweep_driver.py)
# ---------------------------------------------------------------------------

def validate_doc(doc: dict) -> list[str]:
    """Structural check of a sweep document; returns error strings."""
    errors: list[str] = []
    for key, want in (("schema", SCHEMA), ("version", SCHEMA_VERSION),
                      ("bench", "liveops")):
        if doc.get(key) != want:
            errors.append(f"{key}: expected {want!r}, got {doc.get(key)!r}")
    if not isinstance(doc.get("grid"), list) or not doc["grid"]:
        errors.append("grid: missing or empty")
        return errors
    for i, record in enumerate(doc["grid"]):
        where = f"grid[{i}]"
        for key in ("workload", "scenario", "identical", "observables"):
            if key not in record:
                errors.append(f"{where}: missing {key}")
        obs = record.get("observables", {})
        if "order_violations" not in obs:
            errors.append(f"{where}: observables missing order_violations")
        if record.get("workload") == "canary":
            for key in ("state", "lost_messages", "canary_flows"):
                if key not in obs:
                    errors.append(f"{where}: canary observables missing {key}")
        if record.get("workload") == "tenant":
            for key in ("isolation_ratio", "victim_intact",
                        "aggressor_dropped", "goodput_mbps"):
                if key not in obs:
                    errors.append(f"{where}: tenant observables missing {key}")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append("summary: missing")
        return errors
    for key in ("cells", "all_identical", "zero_order_violations",
                "all_rollouts_correct", "all_crashes_recovered",
                "all_recoveries_within_bounds", "zero_canary_losses",
                "all_isolation_within_bounds", "recovery_latencies",
                "isolation_ratios"):
        if key not in summary:
            errors.append(f"summary: missing {key}")
    return errors


#: every boolean of the summary is a gate
GATES = [
    (lambda s, key=key: s[key], f"summary.{key} is false")
    for key in ("all_identical", "zero_order_violations",
                "all_rollouts_correct", "all_crashes_recovered",
                "all_recoveries_within_bounds", "zero_canary_losses",
                "all_isolation_within_bounds")
]


def main(argv=None) -> int:
    return plane_main("liveops", bench, GATES, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
