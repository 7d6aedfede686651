#!/usr/bin/env python3
"""Noisy-neighbor goodput isolation under the multi-tenant plane.

A victim TCP bulk transfer (tenant ``alice``) shares a server with an
aggressor (``mallory``) whose virtual circuit is blasted with junk
frames injected straight at the server NIC, swept over an intensity
grid (frames/s).  Each intensity runs twice:

* **protected** — the tenant plane is installed; mallory's token
  bucket admits at most ``bytes_per_round`` per accounting round and
  clips the rest *pre-DMA*, so admitted abuse is bounded no matter the
  offered load.
* **unprotected** — the ablation: no quotas, every aggressor frame
  costs real DMA, interrupts and replenish CPU, and the victim bleeds.

Reported per intensity: victim goodput for both arms and the
**isolation ratio** (victim goodput / solo-run goodput).  The committed
gates are ``isolation_ratio >= 0.9`` for every protected point and
bit-identical results between the fast and legacy substrates.  The
unprotected curve carries no gate — it is the evidence that the gate
is non-trivial (at the top of the committed grid it degrades well
below the protected floor).

Custom sweeps (``--intensity``, ``--kb``) echo their arguments into
the JSON under ``cli`` (the bench_scale convention); the committed
``BENCH_tenancy.json`` is always the default grid.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.bench.results import (on_both_substrates, plane_doc,  # noqa: E402
                                 plane_main)
from repro.bench.workloads import tenant_noisy_neighbor          # noqa: E402

#: aggressor intensities, frames/s (0 = solo baseline run)
FULL_GRID = (0, 2_000, 10_000, 30_000, 60_000)
QUICK_GRID = (0, 30_000)
FULL_KB = 96
QUICK_KB = 48
ISOLATION_FLOOR = 0.9


def run_config(intensity_fps: int, total_kb: int,
               solo_mbps: float | None) -> dict:
    """One intensity: protected and unprotected (the ablation), each on
    both substrates."""
    arms = {}
    identical = True
    for arm, protected in (("protected", True), ("unprotected", False)):
        arms[arm], same = on_both_substrates(
            tenant_noisy_neighbor, intensity_fps=intensity_fps,
            protected=protected, total_kb=total_kb)
        identical &= same
    entry = {"intensity_fps": intensity_fps, "total_kb": total_kb,
             "identical": identical, **arms}
    line = f"  fps={intensity_fps:<6d} "
    if solo_mbps is None:
        line += f"solo={arms['protected']['goodput_mbps']:6.3f} MB/s"
    else:
        for arm, result in arms.items():
            ratio = round(result["goodput_mbps"] / solo_mbps, 4)
            entry[f"{arm}_isolation_ratio"] = ratio
            line += (f"{arm}={result['goodput_mbps']:6.3f} MB/s "
                     f"(ratio {ratio:.4f})  ")
        line += f"clipped={arms['protected']['aggressor_dropped']}"
    print(line + ("" if identical else "  SUBSTRATES DIVERGE!"))
    return entry


def bench(quick: bool, cli: dict | None = None) -> dict:
    out = plane_doc("tenancy", quick, configs=[])
    if cli is not None:
        out["cli"] = {"intensity": cli["intensity"] or list(FULL_GRID),
                      "kb": cli["kb"] or FULL_KB}
        grid, total_kb = tuple(out["cli"]["intensity"]), out["cli"]["kb"]
    elif quick:
        grid, total_kb = QUICK_GRID, QUICK_KB
    else:
        grid, total_kb = FULL_GRID, FULL_KB
    if grid[0] != 0:
        grid = (0,) + grid  # the solo point anchors every ratio

    print(f"noisy-neighbor isolation sweep (victim {total_kb} KiB bulk):")
    solo = run_config(0, total_kb, None)
    solo_mbps = solo["protected"]["goodput_mbps"]
    out["configs"].append(solo)
    for fps in grid[1:]:
        out["configs"].append(run_config(fps, total_kb, solo_mbps))

    contended = out["configs"][1:]
    out["summary"] = {
        "all_identical": all(c["identical"] for c in out["configs"]),
        "solo_goodput_mbps": round(solo_mbps, 4),
        "isolation_floor": ISOLATION_FLOOR,
        "min_protected_isolation_ratio": min(
            (c["protected_isolation_ratio"] for c in contended),
            default=1.0),
        "min_unprotected_isolation_ratio": min(
            (c["unprotected_isolation_ratio"] for c in contended),
            default=1.0),
        "order_violations": sum(
            c["protected"]["order_violations"] for c in out["configs"]),
    }
    return out


GATES = [
    (lambda s: s["all_identical"],
     "substrates disagree on a tenant-contended run"),
    (lambda s: not s["order_violations"],
     "buffer-order violations under protection"),
    (lambda s: s["min_protected_isolation_ratio"] >= ISOLATION_FLOOR,
     "isolation broken: protected victim ratio "
     "{min_protected_isolation_ratio} < {isolation_floor}"),
]
EXTRA_ARGS = [
    ("--intensity", dict(type=int, nargs="+",
                         help="custom config: aggressor frames/s grid")),
    ("--kb", dict(type=int,
                  help="custom config: victim transfer size, KiB")),
]

if __name__ == "__main__":
    sys.exit(plane_main("tenancy", bench, GATES, EXTRA_ARGS))
