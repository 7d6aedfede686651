#!/usr/bin/env python3
"""The operational planes under stress: crash, faults, live ops and tenancy.

One grid of worlds, each run once on both simulation substrates under
the same seeded schedule; every row must be bit-identical across them
(``identical``).  A row is ``{workload, labels, kwargs, expectations}``:
``CELLS[workload](substrate=..., **kwargs)`` returns the row's
simulated observables, ``labels`` name it in the document and
``expectations`` are what it must meet.

* **transfer** — a seeded TCP bulk transfer under a fault schedule
  (``chaos_transfer``).  Seed 42, 128 000 B: the unimpaired baseline;
  a server crash swept over outage length and crash time (recovery
  time, and goodput relative to the baseline); every seam at once
  (crash + memory pressure + CPU contention + link chaos), once per
  delivery mode, where service must degrade strictly in hierarchy
  order (ash -> upcall -> ring -> drop) with zero
  ``degradation.order_violations``; each link impairment (drop,
  corrupt, duplicate, reorder) over a rate grid, and drop / corrupt
  again with SACK off (the ablation).  Seed 11, 48 000 B: the live-ops
  crashes the server benches left open — a client-side crash, a crash
  during the three-way handshake, a reboot storm (``repeat=3``) — plus
  link chaos, each recovery held to its ``RECOVERY_BOUND_US``.
* **canary** — a staged canary rollout of remote-increment handlers
  (``canary_rollout``): a divergent v2 rolls back, also across a
  mid-canary server crash; an identical v2 promotes under link jitter;
  no message is lost.
* **tenant** — one arm of the noisy-neighbour experiment
  (``tenant_noisy_neighbor``): a 96 KiB victim transfer beside an
  aggressor flooding at 0-60 kfps, with the tenant plane installed
  (``protected``) or not (the ablation).  A protected victim keeps at
  least ``ISOLATION_FLOOR`` of its solo goodput and a byte-identical
  payload; the unprotected curve carries no gate — it is the evidence
  that the gate is not trivial.
* **abort** — forced mid-handler ASH aborts on remote increment: every
  aborted delivery falls back to the upcall path and no message is lost.

The figures that compare worlds (``goodput_vs_baseline``,
``sack_speedup``, ``isolation_ratio``, the summary's curves) are
computed from the rows, never by running a world again.  Results land
in ``BENCH_planes.json`` at the repo root; ``--quick`` shrinks the
crash, impairment and tenancy sweeps.
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.bench.results import (on_both_substrates, plane_doc,  # noqa: E402
                                 plane_main)
from repro.bench.testbed import make_an2_pair                    # noqa: E402
from repro.bench.workloads import (am_flow, canary_rollout,      # noqa: E402
                                   chaos_transfer, recovery_us,
                                   tenant_noisy_neighbor)
from repro.kernel.upcall import UpcallHandler                    # noqa: E402
from repro.sim.engine import Engine                              # noqa: E402

IMPAIRMENTS = ("drop", "corrupt", "duplicate", "reorder")

#: pinned recovery-latency upper bounds (µs from reboot to the first
#: post-reboot delivery) per live-ops crash.  Declared budgets, not
#: measurements: TCP retransmission finds the rebooted node within one
#: backed-off RTO (20 ms base here), the canary client's next request
#: round lands right after reboot.
RECOVERY_BOUND_US = {
    "transfer/client_crash": 90_000.0,
    "transfer/handshake_crash": 90_000.0,
    "transfer/reboot_storm": 90_000.0,
    "canary/server_crash": 5_000.0,
}

#: a protected victim keeps at least this share of its solo goodput,
#: whatever the aggressor's offered load
ISOLATION_FLOOR = 0.9


# ---------------------------------------------------------------------------
# the cells: one world on one substrate -> its observables
# ---------------------------------------------------------------------------

def transfer(substrate: str, nbytes: int, seed: int, **seams) -> dict:
    """One bulk transfer under ``chaos_transfer``'s ``faults`` schedule
    (and ``mode`` / ``sack``); every substrate-invariant observable."""
    tb, plane, xfer = chaos_transfer(nbytes, seed, substrate=substrate,
                                     **seams)
    sk, ck = tb.server_kernel, tb.client_kernel
    client, server = xfer.client.tcb, xfer.server.tcb
    elapsed_ps = xfer.delivered - xfer.accepted

    def both(ledger: str) -> int:
        return getattr(client, ledger) + getattr(server, ledger)

    return {
        "digest": hashlib.sha256(xfer.got).hexdigest(),
        "elapsed_us": elapsed_ps / 1_000_000,
        "goodput_mbps": nbytes * 8 / (elapsed_ps / 1e12) / 1e6,
        "crashes": sk.crash_count + ck.crash_count,
        "recoveries": sk.recoveries + ck.recoveries,
        "recovery_us": recovery_us(sk, ck),
        "lost_in_crash": sk.lost_messages + ck.lost_messages,
        "injected": plane.total(),
        "ledger": plane.ledger(),
        "retransmits": both("retransmits"),
        "fast_retransmits": both("fast_retransmits"),
        "fast_recoveries": both("fast_recoveries"),
        "selective_rexmits": both("selective_rexmits"),
        "sack_blocks": both("sack_blocks_rx"),
        "checksum_failures": both("checksum_failures"),
        "alloc_failures": dict(tb.server.memory.alloc_failures),
        "contention_cycles": tb.server.cpu.contention_cycles,
        "delivery_outcomes": dict(sk.delivery_outcomes),
        "order_violations": (sk.degradation_order_violations
                             + ck.degradation_order_violations),
    }


def abort(substrate: str, messages: int, seed: int) -> dict:
    """Forced mid-handler aborts (every second delivery) on remote
    increment: zero message loss through the upcall fallback."""
    tb = make_an2_pair(engine=Engine(substrate=substrate))
    sk, ck = tb.server_kernel, tb.client_kernel
    flow = am_flow(tb)
    flow.srv_ep.upcall = UpcallHandler(program=flow.program,
                                       user_word=flow.params)
    plane = tb.attach_fault_plane(seed=seed)
    injector = plane.install("ash", "server_kernel", every=2)
    values = list(range(1, messages + 1))
    replies = []

    def client(proc):
        # round-trip paced (send, await the reply) so this measures
        # abort recovery, not rx-ring exhaustion — inject that
        # separately at the "nic" site
        for v in values:
            reply, _ticks = yield from flow.request(proc, v)
            replies.append(reply)

    flow.cli_ep.owner = ck.spawn_process("ash-client", client)
    tb.run()
    counter = tb.server.memory.load_u32(flow.counter)
    return {
        "messages": messages,
        "aborts_forced": injector.fired,
        "involuntary_aborts":
            sk.ash_system.entry(flow.ash_id).involuntary_aborts,
        "upcall_fallbacks": sk.ash_abort_fallbacks,
        "counter": counter,
        "expected": sum(values),
        "replies": len(replies),
        "zero_loss": counter == sum(values) and len(replies) == messages,
        # the engine's end-of-run clock.  Part of the identity check:
        # the abort timers this world cancels lie past the last real
        # event, and both substrates still stop at the same tick
        "virtual_ns": tb.engine.now / 1000,
    }


def canary(substrate: str, **rollout) -> dict:
    """One staged canary rollout, ``canary_rollout``'s observables."""
    return canary_rollout(substrate=substrate, **rollout)


def tenant(substrate: str, **arm) -> dict:
    """One arm of the noisy-neighbour experiment at one intensity."""
    return tenant_noisy_neighbor(substrate=substrate, **arm)


CELLS = {"transfer": transfer, "canary": canary, "tenant": tenant,
         "abort": abort}


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------

def grid(quick: bool) -> list[dict]:
    """Every world of the bench, once, in document order."""
    if quick:
        outages, crash_times = (200.0, 20_000.0), (500.0,)
        modes, rates, intensities = (None, "ash"), (0.1,), (0, 30_000)
    else:
        outages = (200.0, 1_000.0, 5_000.0, 20_000.0, 60_000.0)
        crash_times = (500.0, 1_500.0, 4_000.0, 10_000.0)
        modes, rates = (None, "upcall", "ash"), (0.05, 0.1, 0.2)
        intensities = (0, 2_000, 10_000, 30_000, 60_000)
    rows = []

    def row(workload, labels, expectations=None, **kwargs):
        rows.append({"workload": workload, "labels": labels,
                     "kwargs": kwargs, "expectations": expectations or {}})

    def crash(target, at_us, outage_us, **knobs):
        return {"site": "crash", "target": target, "at_us": at_us,
                "outage_us": outage_us, **knobs}

    big = {"nbytes": 128_000, "seed": 42}
    # the unimpaired transfer is also every impairment curve's rate 0
    row("transfer", {"scenario": "baseline", "rate": 0.0}, **big)
    # the outage sweep crashes at 1.5 ms, the crash-time sweep is down
    # 5 ms: the point they share is one world
    for at, outage in dict.fromkeys([(1_500.0, o) for o in outages]
                                    + [(t, 5_000.0) for t in crash_times]):
        row("transfer", {"scenario": "server_crash", "crash_at_us": at,
                         "outage_us": outage}, {"recoveries": 1},
            faults=[crash("server_kernel", at, outage)], **big)
    everything = [
        {"site": "link", "target": "link", "drop": 0.02, "corrupt": 0.02},
        crash("server_kernel", 1_500.0, 5_000.0),
        {"site": "mem", "target": "server", "rate": 0.1,
         "sites": ["rx_refill", "ash_install"]},
        {"site": "cpu", "target": "server", "rate": 0.1,
         "burst_cycles": 1_000, "budget_rate": 0.2},
    ]
    for mode in modes:
        row("transfer", {"scenario": "combined", "mode": mode or "ring"},
            {"order_violations": 0}, faults=everything, mode=mode, **big)
    for kind in IMPAIRMENTS:
        for rate in rates:
            link = [{"site": "link", "target": "link", kind: rate}]
            row("transfer", {"scenario": kind, "rate": rate, "sack": True},
                faults=link, **big)
            if kind in ("drop", "corrupt"):
                row("transfer",
                    {"scenario": kind, "rate": rate, "sack": False},
                    faults=link, sack=False, **big)

    small, clean = {"nbytes": 48_000, "seed": 11}, {"order_violations": 0}
    for scenario, faults in (
            ("none", []),
            ("client_crash", [crash("client_kernel", 1_500.0, 2_000.0)]),
            ("handshake_crash", [crash("server_kernel", 5.0, 2_000.0)]),
            ("reboot_storm", [crash("server_kernel", 1_500.0, 1_000.0,
                                    repeat=3, period_us=8_000.0)]),
            ("link_chaos", [{"site": "link", "target": "link",
                             "drop": 0.05, "corrupt": 0.02}])):
        crashes = sum(spec.get("repeat", 1) for spec in faults
                      if spec["site"] == "crash")
        bound = ({"recoveries": crashes,
                  "recovery_bound_us":
                      RECOVERY_BOUND_US[f"transfer/{scenario}"]}
                 if crashes else {})
        row("transfer", {"scenario": scenario}, {**clean, **bound},
            faults=faults, **small)

    canary = {**clean, "lost_messages": 0}
    row("canary", {"scenario": "none"}, {**canary, "state": "rolled_back"},
        v2="divergent", fault_seed=11)
    row("canary", {"scenario": "server_crash"},
        {**canary, "state": "rolled_back", "recoveries": 1,
         "recovery_bound_us": RECOVERY_BOUND_US["canary/server_crash"]},
        v2="divergent", crash_during_canary=True, fault_seed=11)
    row("canary", {"scenario": "link_jitter"}, {**canary, "state": "promoted"},
        v2="identical", fault_seed=11,
        scenario=[{"site": "link", "target": "link", "delay_jitter_us": 20.0}])

    for fps in intensities:
        for protected in (True, False):
            isolated = {"isolation_floor": ISOLATION_FLOOR} if fps else {}
            row("tenant", {"arm": "protected" if protected else "unprotected",
                           "intensity_fps": fps},
                {**clean, **isolated} if protected else {},
                intensity_fps=fps, protected=protected, total_kb=96)

    row("abort", {"scenario": "every_second_delivery"}, {"zero_loss": True},
        messages=32, seed=42)
    return rows


# ---------------------------------------------------------------------------
# what rows are checked against, and the gates over them
# ---------------------------------------------------------------------------

#: expectation -> (its summary gate, the message when that gate fails).
#: ``recovery_bound_us`` and ``isolation_floor`` are bounds; every other
#: expectation is the value its observable must equal.
EXPECTATIONS = {
    "order_violations": ("zero_order_violations",
                         "a delivery skipped a hierarchy level out of order"),
    "recoveries": ("every_crash_recovered", "a crashed node never recovered"),
    "recovery_bound_us": ("all_recoveries_within_bounds",
                          "a recovery outlasted its RECOVERY_BOUND_US"),
    "zero_loss": ("zero_loss_under_abort",
                  "messages lost across forced ASH aborts"),
    "state": ("all_rollouts_correct", "a rollout reached the wrong verdict"),
    "lost_messages": ("zero_canary_losses", "a canary rollout lost messages"),
    "isolation_floor": ("all_isolation_within_bounds",
                        "isolation broken: protected victim ratio "
                        "{min_protected_isolation_ratio} < "
                        f"{ISOLATION_FLOOR}"),
}

GATES = [(lambda s: s["all_identical"],
          "substrates disagree under an identical schedule")] + [
    (lambda s, gate=gate: s[gate], message)
    for gate, message in EXPECTATIONS.values()
]


def met(row: dict) -> dict:
    """Each of the row's expectations -> whether the row meets it."""
    obs, out = row["observables"], {}
    for key, want in row["expectations"].items():
        if key == "recovery_bound_us":
            out[key] = (obs["recovery_us"] is not None
                        and obs["recovery_us"] <= want)
        elif key == "isolation_floor":
            out[key] = row["victim_intact"] and row["isolation_ratio"] >= want
        else:
            out[key] = obs[key] == want
    return out


def derive(rows: list[dict]) -> dict:
    """Write the figures that compare rows into them; returns the
    summary's curves."""
    def find(workload: str, **labels) -> dict:
        return next(r for r in rows
                    if r["workload"] == workload and r["labels"] == labels)

    def goodput(row: dict) -> float:
        return row["observables"]["goodput_mbps"]

    baseline = find("transfer", scenario="baseline", rate=0.0)
    solo = find("tenant", arm="protected", intensity_fps=0)
    tenants = [r for r in rows
               if r["workload"] == "tenant" and r["labels"]["intensity_fps"]]
    for r in (r for r in rows if r["workload"] == "transfer"):
        labels = r["labels"]
        if labels["scenario"] == "server_crash":
            r["goodput_vs_baseline"] = round(goodput(r) / goodput(baseline),
                                             4)
        elif labels.get("sack") is False:
            on = find("transfer", **dict(labels, sack=True))
            on["sack_speedup"] = round(goodput(on) / goodput(r), 3)
    for r in tenants:
        r["isolation_ratio"] = round(goodput(r) / goodput(solo), 4)
        r["victim_intact"] = (r["observables"]["payload_sha"]
                              == solo["observables"]["payload_sha"])
    max_rate = max(r["labels"]["rate"] for r in rows if "rate" in r["labels"])

    def min_ratio(arm: str) -> float:
        return min(r["isolation_ratio"] for r in tenants
                   if r["labels"]["arm"] == arm)

    return {
        "goodput_retained_at_max_rate": {
            kind: round(goodput(find("transfer", scenario=kind,
                                     rate=max_rate, sack=True))
                        / goodput(baseline), 3)
            for kind in IMPAIRMENTS},
        "solo_goodput_mbps": round(goodput(solo), 4),
        "min_protected_isolation_ratio": min_ratio("protected"),
        "min_unprotected_isolation_ratio": min_ratio("unprotected"),
    }


def bench(quick: bool) -> dict:
    rows = []
    for spec in grid(quick):
        observables, identical = on_both_substrates(
            CELLS[spec["workload"]], **spec["kwargs"])
        rows.append(dict(spec, identical=identical, observables=observables))
    summary = derive(rows)
    for r in rows:
        r["met"] = met(r)
        obs = r["observables"]
        figures = [f"{key}={obs[key]:.6g}"
                   for key in ("goodput_mbps", "recovery_us") if obs.get(key)]
        figures += [f"{key}={r[key]}" for key in
                    ("goodput_vs_baseline", "sack_speedup", "isolation_ratio")
                    if key in r]
        print(f"  {r['workload']:8s} "
              + " ".join(f"{k}={v}" for k, v in r["labels"].items())
              + "  " + "  ".join(figures)
              + "".join(f"  FAILS {key}" for key, ok in r["met"].items()
                        if not ok)
              + ("" if r["identical"] else "  SUBSTRATES DIVERGE!"))
    summary["all_identical"] = all(r["identical"] for r in rows)
    for key, (gate, _message) in EXPECTATIONS.items():
        summary[gate] = all(r["met"][key] for r in rows if key in r["met"])
    return plane_doc("planes", quick, rows=rows, summary=summary)


if __name__ == "__main__":
    sys.exit(plane_main("planes", bench, GATES))
