#!/usr/bin/env python3
"""Many-flow fairness on one contended AN2 link.

N TCP flows (N >= 16 in the committed baseline) share a single AN2
link: one node pair, one :class:`~repro.hw.link.Link`, a per-flow
virtual-circuit pair and NetStack alias per flow — so every segment of
every flow serializes through the same link and the congestion
controller is what arbitrates the bandwidth.  Each flow pushes the same
number of bytes with a staggered start; per-flow goodput comes from the
flow's own transfer window.

Reported per config:

* **Jain's fairness index** ``(sum x)^2 / (n * sum x^2)`` over per-flow
  goodputs — 1.0 is perfectly fair, 1/n is one flow hogging the link.
  The committed gate is >= 0.9 at 16+ flows (AIMD should converge).
* **aggregate goodput** over the union of the transfer windows — the
  link must stay busy; fairness by collective slowdown doesn't count.
* **substrate identity** — per-flow digests, virtual times, retransmit
  counts and congestion-event digests must match bit-for-bit between
  the fast and legacy substrates.

Custom sweeps (``--flows``, ``--bytes``) echo their arguments into the
JSON under ``cli`` (the bench_scale convention) so one-off runs are
reproducible without editing this file; the committed
``BENCH_fairness.json`` is always the default grid.
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
from repro.bench.workloads import seeded_payload, tcp_bulk       # noqa: E402
from repro.sim.engine import Engine                              # noqa: E402

SEED = 42
#: connect-time stagger between consecutive flows, picoseconds (25 us)
STAGGER_PS = 25_000_000
PS_PER_US = 1_000_000
JAIN_FLOOR = 0.9


def jain_index(xs: list[float]) -> float:
    """Jain's fairness index: 1.0 = equal shares, 1/n = total capture."""
    if not xs:
        return 1.0
    total = sum(xs)
    sq = sum(x * x for x in xs)
    return (total * total) / (len(xs) * sq) if sq else 1.0


def run_fairness(substrate: str, nflows: int, nbytes: int) -> dict:
    """One contended run: ``nflows`` bulk transfers over a shared link."""
    tb = make_an2_pair(engine=Engine(substrate=substrate))
    flows = [
        tcp_bulk(tb, seeded_payload(SEED + j, nbytes), flow=j,
                 start_ps=j * STAGGER_PS, linger_us=0, rto_us=20_000.0)
        for j in range(nflows)
    ]
    tb.run()

    per_flow = []
    for j, xfer in enumerate(flows):
        xfer.check(f"flow {j} ({substrate})")
        elapsed_ps = xfer.t1 - xfer.t0
        per_flow.append({
            "flow": j,
            "digest": hashlib.sha256(xfer.got).hexdigest()[:16],
            "elapsed_us": elapsed_ps / PS_PER_US,
            "goodput_mbps": nbytes * 8 / (elapsed_ps / 1e12) / 1e6,
            "retransmits": (xfer.client.tcb.retransmits
                            + xfer.client.tcb.fast_retransmits),
            "cc_digest": xfer.client.congestion_digest()[:16],
        })
    goodputs = [f["goodput_mbps"] for f in per_flow]
    span_ps = max(x.t1 for x in flows) - min(x.t0 for x in flows)
    return {
        "flows": nflows,
        "bytes_per_flow": nbytes,
        "sack": True,    # layout field: fairness is measured with SACK on
        "jain_index": round(jain_index(goodputs), 4),
        "goodput_mbps": nflows * nbytes * 8 / (span_ps / 1e12) / 1e6,
        "min_flow_mbps": round(min(goodputs), 3),
        "max_flow_mbps": round(max(goodputs), 3),
        "per_flow": per_flow,
    }


def bench(quick: bool, cli: dict | None = None) -> dict:
    out = plane_doc("fairness", quick, seed=SEED, configs=[])
    if cli is not None:
        out["cli"] = {"flows": cli["flows"] or 16,
                      "bytes": cli["bytes"] or 48_000}
        grid = [(out["cli"]["flows"], out["cli"]["bytes"])]
    elif quick:
        grid = [(8, 24_000)]
    else:
        grid = [(16, 48_000), (24, 32_000)]
    print(f"many-flow fairness on one shared AN2 link (seed {SEED}):")
    for nflows, nbytes in grid:
        entry, identical = on_both_substrates(
            run_fairness, nflows=nflows, nbytes=nbytes)
        entry["identical"] = identical
        out["configs"].append(entry)
        print(f"  flows={nflows:<3d} bytes={nbytes}  "
              f"jain={entry['jain_index']:.4f}  "
              f"aggregate={entry['goodput_mbps']:8.2f} Mb/s  "
              f"spread=[{entry['min_flow_mbps']:g}, "
              f"{entry['max_flow_mbps']:g}] Mb/s"
              f"{'' if identical else '  SUBSTRATES DIVERGE!'}")
    out["summary"] = {
        "all_identical": all(c["identical"] for c in out["configs"]),
        "min_jain_index": min(c["jain_index"] for c in out["configs"]),
    }
    return out


GATES = [
    (lambda s: s["all_identical"],
     "substrates disagree on a shared contended link"),
    (lambda s: s["min_jain_index"] >= JAIN_FLOOR,
     f"fairness collapsed: Jain index {{min_jain_index}} < {JAIN_FLOOR}"),
]
EXTRA_ARGS = [
    ("--flows", dict(type=int,
                     help="custom config: concurrent flows on the link")),
    ("--bytes", dict(type=int, help="custom config: bytes per flow")),
]

if __name__ == "__main__":
    sys.exit(plane_main("fairness", bench, GATES, EXTRA_ARGS))
