#!/usr/bin/env python3
"""Goodput under injected faults, and recovery invariants.

Sweeps the FaultPlane's link impairments (drop, corrupt, duplicate,
reorder) over a rate grid and measures TCP bulk-transfer goodput at
each point — the degradation curves a transport should show: graceful
goodput loss, never corruption or a hang.  Every point runs on both
simulation substrates under the *same seeded fault schedule*; the
delivered-byte digest, retransmit counters, virtual completion time and
the plane's fault ledger must be bit-identical (``identical``).

A second section forces mid-handler ASH aborts on the Table V
remote-increment workload and checks the zero-loss degradation
invariant: every aborted delivery falls back to the upcall path, the
shared counter sees every message exactly once, and every message is
answered.

Results land in ``BENCH_faults.json`` at the repo root; ``--quick``
shrinks the sweep for CI smoke runs.
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
from repro.bench.workloads import am_flow, chaos_transfer        # noqa: E402
from repro.kernel.upcall import UpcallHandler                    # noqa: E402
from repro.sim.engine import Engine                              # noqa: E402

IMPAIRMENTS = ("drop", "corrupt", "duplicate", "reorder")
SEED = 42


def lossy_transfer(substrate: str, kind: str, rate: float,
                   nbytes: int, sack: bool = True) -> dict:
    """One bulk transfer under a single impairment knob; returns every
    substrate-invariant observable of the run."""
    faults = [{"site": "link", "target": "link", kind: rate}] if rate else []
    tb, plane, xfer = chaos_transfer(nbytes, SEED, substrate=substrate,
                                     faults=faults, sack=sack)
    client, server = xfer.client.tcb, xfer.server.tcb
    elapsed_ps = xfer.delivered - xfer.accepted
    return {
        "digest": hashlib.sha256(xfer.got).hexdigest(),
        "elapsed_us": elapsed_ps / 1_000_000,
        "goodput_mbps": nbytes * 8 / (elapsed_ps / 1e12) / 1e6,
        "injected": plane.total(),
        "ledger": plane.ledger(),
        "retransmits": client.retransmits + server.retransmits,
        "fast_retransmits": (client.fast_retransmits
                             + server.fast_retransmits),
        "fast_recoveries": client.fast_recoveries + server.fast_recoveries,
        "selective_rexmits": (client.selective_rexmits
                              + server.selective_rexmits),
        "sack_blocks": client.sack_blocks_rx + server.sack_blocks_rx,
        "checksum_failures": (client.checksum_failures
                              + server.checksum_failures),
    }


def sack_ablation(rates: list[float], nbytes: int) -> dict:
    """The SACK win, isolated: the same seeded drop/corrupt schedules
    with the scoreboard disabled (``sack=False`` restores drop-OOO +
    go-back-N) versus enabled.  Congestion control runs in both arms, so
    the ratio is the recovery machinery alone."""
    out: dict = {}
    print("sack ablation (same schedules, sack on/off):")
    for kind in ("drop", "corrupt"):
        points = []
        for rate in filter(None, rates):
            on = lossy_transfer("fast", kind, rate, nbytes, sack=True)
            off = lossy_transfer("fast", kind, rate, nbytes, sack=False)
            ratio = round(on["goodput_mbps"] / off["goodput_mbps"], 3)
            points.append({
                "rate": rate,
                "goodput_mbps": on["goodput_mbps"],
                "goodput_nosack_mbps": off["goodput_mbps"],
                "sack_speedup": ratio,
            })
            print(f"  {kind:10s} rate={rate:<5g} "
                  f"sack={on['goodput_mbps']:8.2f} Mb/s  "
                  f"nosack={off['goodput_mbps']:8.2f} Mb/s  "
                  f"speedup={ratio:g}x")
        out[kind] = points
    return out


def ash_abort_demo(substrate: str, messages: int) -> dict:
    """Forced mid-handler aborts on remote-increment: zero message loss
    through the upcall fallback."""
    tb = make_an2_pair(engine=Engine(substrate=substrate))
    sk, ck = tb.server_kernel, tb.client_kernel
    flow = am_flow(tb)
    flow.srv_ep.upcall = UpcallHandler(program=flow.program,
                                       user_word=flow.params)
    plane = tb.attach_fault_plane(seed=SEED)
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
        # the 33 abort timers this world cancels lie past the last real
        # event, and both substrates still stop at the same tick
        "virtual_ns": tb.engine.now / 1000,
    }


def bench(quick: bool) -> dict:
    # the AN2 MSS is ~3 KB, so a transfer is only a few dozen frames:
    # rates well below ~5% rarely fire on a single run — the grid starts
    # where the curves actually bend
    if quick:
        rates = [0.0, 0.1]
        nbytes = 48_000
        messages = 8
    else:
        rates = [0.0, 0.05, 0.1, 0.2]
        nbytes = 128_000
        messages = 32
    out = plane_doc("faults", quick, seed=SEED, transfer_bytes=nbytes,
                    rates=rates)
    print(f"goodput-vs-impairment curves ({nbytes} B transfers, "
          f"seed {SEED}):")
    all_identical = True
    curves: dict = {kind: [] for kind in IMPAIRMENTS}
    for kind, points in curves.items():
        for rate in rates:
            point, identical = on_both_substrates(
                lossy_transfer, kind=kind, rate=rate, nbytes=nbytes)
            all_identical &= identical
            point.update(rate=rate, identical=identical)
            points.append(point)
            print(f"  {kind:10s} rate={rate:<5g} "
                  f"goodput={point['goodput_mbps']:8.2f} Mb/s  "
                  f"injected={point['injected']:<4d} "
                  f"rexmit={point['retransmits']:<3d}"
                  f"{'' if identical else '  SUBSTRATES DIVERGE!'}")
    out["curves"] = curves

    out["sack_ablation"] = sack_ablation(rates, nbytes)

    demo, identical = on_both_substrates(ash_abort_demo, messages=messages)
    all_identical &= identical
    out["ash_abort"] = dict(demo, identical=identical)
    print(f"  ash abort: {demo['aborts_forced']}/{messages} deliveries "
          f"aborted mid-handler, counter {demo['counter']}"
          f"/{demo['expected']}, "
          f"{demo['upcall_fallbacks']} upcall fallbacks, "
          f"zero_loss={demo['zero_loss']}"
          f"{'' if identical else '  SUBSTRATES DIVERGE!'}")

    out["summary"] = {
        "all_identical": all_identical,
        "zero_loss_under_abort": demo["zero_loss"],
        "goodput_retained_at_max_rate": {
            kind: round(points[-1]["goodput_mbps"]
                        / points[0]["goodput_mbps"], 3)
            for kind, points in curves.items()
        },
    }
    return out


GATES = [
    (lambda s: s["all_identical"],
     "substrates disagree under an identical fault schedule"),
    (lambda s: s["zero_loss_under_abort"],
     "messages lost across forced ASH aborts"),
]

if __name__ == "__main__":
    sys.exit(plane_main("faults", bench, GATES))
