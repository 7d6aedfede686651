#!/usr/bin/env python3
"""Crash/restart recovery curves, and the degradation-order invariant.

A scripted kernel crash lands mid-way through a TCP bulk transfer: the
kernel tears down every piece of kernel-volatile state (DPF filters,
installed ASHs, upcall bindings, rx rings) while application memory —
including the shared TCB — survives.  On reboot the kernel re-registers
filters, re-verifies and re-installs ASHs through the sandbox, and the
flow resumes from the surviving shared TCB.  This bench sweeps the
outage length and the crash time and records the two curves the
recovery plane promises:

* **recovery time** — from reboot to the first post-reboot delivery
  (how long the sender's retransmission backoff takes to re-find the
  rebooted node), and
* **goodput dip** — delivered goodput relative to the uncrashed run.

A final section turns every seam on at once (crash + memory pressure +
CPU contention + link chaos) and checks that service degraded strictly
in hierarchy order (ash → upcall → ring → drop): the transfer must
complete byte-identically with zero ``degradation.order_violations``.

Every point runs on both simulation substrates under the same seeded
schedule and must be bit-identical.  Results land in
``BENCH_crash.json`` at the repo root; ``--quick`` shrinks the sweep.
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.bench.results import (on_both_substrates, plane_doc,  # noqa: E402
                                 plane_main)
from repro.bench.workloads import chaos_transfer                 # noqa: E402

SEED = 42


def crash_transfer(substrate: str, nbytes: int, **seams) -> dict:
    """One bulk transfer under ``seams`` (``chaos_transfer``'s ``faults``
    schedule and ``mode``); returns every substrate-invariant observable
    of the run."""
    tb, plane, xfer = chaos_transfer(nbytes, SEED, substrate=substrate,
                                     **seams)
    sk, ck = tb.server_kernel, tb.client_kernel
    recovery_us = None
    if sk.crash_log:
        rec = sk.crash_log[0]
        if rec["first_delivery_after_reboot"] is not None:
            recovery_us = (rec["first_delivery_after_reboot"]
                           - rec["reboot_at"]) / 1_000_000
    elapsed_ps = xfer.delivered - xfer.accepted
    return {
        "digest": hashlib.sha256(xfer.got).hexdigest(),
        "elapsed_us": elapsed_ps / 1_000_000,
        "goodput_mbps": nbytes * 8 / (elapsed_ps / 1e12) / 1e6,
        "recoveries": sk.recoveries,
        "recovery_us": recovery_us,
        "lost_in_crash": sk.lost_messages,
        "ledger": plane.ledger(),
        "retransmits": (xfer.client.tcb.retransmits
                        + xfer.server.tcb.retransmits),
        "alloc_failures": dict(tb.server.memory.alloc_failures),
        "contention_cycles": tb.server.cpu.contention_cycles,
        "delivery_outcomes": dict(sk.delivery_outcomes),
        "order_violations": (sk.degradation_order_violations
                             + ck.degradation_order_violations),
    }


def cells(quick: bool) -> list[tuple[str, dict, dict]]:
    """The sweep as ``(section, labels, seams)``: the point's section in
    the document, the keys that label it there, and what is injected."""
    # in ring mode a 48 KB transfer runs tens of ms; crash early enough
    # to land mid-flow in every delivery mode
    crash_at = 1_500.0
    if quick:
        outages = [200.0, 2_000.0, 20_000.0]
        crash_times = [500.0, 1_500.0]
        modes = [None, "ash"]
    else:
        outages = [200.0, 1_000.0, 5_000.0, 20_000.0, 60_000.0]
        crash_times = [500.0, 1_500.0, 4_000.0, 10_000.0]
        modes = [None, "upcall", "ash"]

    def crash(at_us: float, outage_us: float) -> dict:
        return {"site": "crash", "target": "server_kernel",
                "at_us": at_us, "outage_us": outage_us}

    # all seams on at once: link chaos + crash + memory pressure + CPU
    # contention, once per delivery mode
    everything = [
        {"site": "link", "target": "link", "drop": 0.02, "corrupt": 0.02},
        crash(crash_at, 5_000.0),
        {"site": "mem", "target": "server", "rate": 0.1,
         "sites": ("rx_refill", "ash_install")},
        {"site": "cpu", "target": "server", "rate": 0.1,
         "burst_cycles": 1_000, "budget_rate": 0.2},
    ]
    return (
        [("recovery_vs_outage", {"outage_us": outage},
          {"faults": [crash(crash_at, outage)]}) for outage in outages]
        + [("goodput_vs_crash_time", {"crash_at_us": at},
            {"faults": [crash(at, 5_000.0)]}) for at in crash_times]
        + [("combined_degradation", {"mode": mode or "ring"},
            {"faults": everything, "mode": mode}) for mode in modes]
    )


def bench(quick: bool) -> dict:
    nbytes = 48_000 if quick else 128_000
    out = plane_doc("crash", quick, seed=SEED, transfer_bytes=nbytes)
    baseline, all_identical = on_both_substrates(crash_transfer,
                                                 nbytes=nbytes)
    out["baseline"] = baseline
    print(f"baseline ({nbytes} B, no crash): "
          f"{baseline['goodput_mbps']:8.2f} Mb/s")
    for section, labels, seams in cells(quick):
        point, ident = on_both_substrates(crash_transfer, nbytes=nbytes,
                                          **seams)
        all_identical &= ident
        point.update(labels, identical=ident)
        if section != "combined_degradation":
            point["goodput_vs_baseline"] = round(
                point["goodput_mbps"] / baseline["goodput_mbps"], 4)
        out.setdefault(section, []).append(point)
        print(f"  {section:21s} {labels}  "
              f"recovery={point['recovery_us']!s:>10}us  "
              f"goodput={point['goodput_mbps']:8.2f} Mb/s  "
              f"lost={point['lost_in_crash']} "
              f"rexmit={point['retransmits']} "
              f"violations={point['order_violations']}"
              f"{'' if ident else '  SUBSTRATES DIVERGE!'}")

    crashed = out["recovery_vs_outage"] + out["goodput_vs_crash_time"]
    out["summary"] = {
        "all_identical": all_identical,
        "zero_order_violations": all(
            p["order_violations"] == 0
            for p in out["combined_degradation"]),
        "every_crash_recovered": all(p["recoveries"] == 1 for p in crashed),
        "max_recovery_us": max(
            p["recovery_us"] for p in out["recovery_vs_outage"]
            if p["recovery_us"] is not None
        ),
    }
    return out


GATES = [
    (lambda s: s["all_identical"],
     "substrates disagree under an identical fault schedule"),
    (lambda s: s["zero_order_violations"],
     "a delivery skipped a hierarchy level out of order"),
    (lambda s: s["every_crash_recovered"], "a crashed node never recovered"),
]

if __name__ == "__main__":
    sys.exit(plane_main("crash", bench, GATES))
