#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from benchmarks/results/*.json.

Run the benchmarks first (``pytest benchmarks/ --benchmark-only``), then
``python benchmarks/make_experiments_md.py``.

``--trace`` additionally runs a small canonical workload (a UDP echo
round trip plus an ASH remote increment) with telemetry enabled and
writes ``results/canonical.telemetry.json`` / ``canonical.trace.json``
sidecars; ``--metrics-out PATH`` redirects the metrics sidecar.  The
capture is deterministic: the same sources produce the same bytes.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
OUT = os.path.join(os.path.dirname(HERE), "EXPERIMENTS.md")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

ORDER = [
    "table1_raw_latency",
    "fig3_raw_throughput",
    "table2_udp_tcp",
    "table3_copies",
    "table4_ilp",
    "table5_remote_increment",
    "table6_tcp_ash",
    "fig4_scheduling",
    "sec5d_sandbox_overhead",
    "ablation_dilp",
    "ablation_budget",
    "ablation_sandbox",
    "ablation_livelock",
    "ext_tcp_params",
]

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, reproduced on the
deterministic simulator.  Absolute values are cost-model outputs —
calibrated from the paper's anchor numbers (see
`src/repro/hw/calibration.py`) — so agreement of *shape* (orderings,
ratios, crossovers) is the claim; agreement of absolute microseconds is
a bonus that mostly holds within ~15%.

Regenerate with:

```sh
pytest benchmarks/ --benchmark-only
python benchmarks/make_experiments_md.py
```

Measured rows come from `benchmarks/results/*.json` (checked in by the
last benchmark run on this machine).

## Known, deliberate divergences

1. **Sandbox overhead is lower than the paper's.**  Their sandboxer was
   "optimized for correctness rather than for performance" with "overly
   general exit code"; ours inserts ~3-cycle checks.  Consequences: the
   Table V sandboxed-unsafe gap is ~0.5 µs (paper: 5 µs), the Table VI
   sandboxed-ASH column *beats* user-level polling latency (in the
   paper it trailed it by 10 µs), and §V-D's 40-byte ratio is ~1.05
   (paper: 1.3-1.4).  The paper itself predicts this: "a large fraction
   of the added instructions ... could relatively easily be removed".
2. **Handler instruction counts are smaller.**  Our remote increment is
   18 instructions + 7 added (paper: 90 + 76) because our trusted-call
   interface subsumes work their handlers inlined.  The §V-D
   *hand-crafted application-specific remote write is 10 instructions
   in both* — a shape we preserve exactly — and sandboxed-specific
   remains smaller than generic, the paper's headline point.
3. **Separate/uncached passes are slightly slower than the paper's**
   (Table IV column 1: we measure ~8.3 vs their 10 MB/s) — our cache
   model charges the full reload for every flushed traversal, theirs
   apparently overlapped some of it.
4. **TCP throughput runs stream 2 MB rather than 10 MB** (the
   steady-state rate is size-independent; re-run with
   ``total_bytes=10*1024*1024`` to match the paper exactly).

---
"""


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def table_md(raw: dict) -> str:
    cols = raw["columns"]
    lines = [f"## {raw['title']}", ""]
    if raw.get("unit"):
        lines.append(f"*Unit: {raw['unit']}*")
        lines.append("")
    lines.append("| | " + " | ".join(cols) + " |")
    lines.append("|---" * (len(cols) + 1) + "|")
    for row in raw["rows"]:
        label = row["label"]
        cells = [fmt(row.get(c, "")) for c in cols]
        lines.append(f"| **{label}** (measured) | " + " | ".join(cells) + " |")
        ref = raw.get("paper", {}).get(label)
        if ref:
            cells = [fmt(ref[c]) if c in ref else "" for c in cols]
            lines.append(f"| {label} (paper) | " + " | ".join(cells) + " |")
    for note in raw.get("notes", []):
        if "\n" in note:  # charts and other preformatted notes
            lines.append("\n```text" + note.rstrip() + "\n```")
        else:
            lines.append(f"\n> {note}")
    lines.append("")
    return "\n".join(lines)


def _count_loc(root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def complexity_section() -> str:
    """Section V-F: 'Complexity of the System', ours vs theirs.

    Paper: ~1000 lines of kernel support for static ASHs + 3300 lines of
    C++ sandboxer + ~400 for upcalls + 250 of DILP interface + the
    ~3000-line stand-alone VCODE package.
    """
    src = os.path.join(os.path.dirname(HERE), "src", "repro")
    rows = [
        ("ASH system (kernel support)", "ash", "~1000 C (kernel)"),
        ("sandboxer", "sandbox", "3300 C++"),
        ("upcalls + kernel", "kernel", "~400"),
        ("DILP interface + compiler", "pipes", "250 + VCODE"),
        ("VCODE substrate", "vcode", "~3000 (stand-alone)"),
        ("protocol libraries", "net", "(not reported)"),
        ("hardware + simulator substrate", "hw", "(real hardware)"),
    ]
    lines = [
        "## Sec V-F: complexity of the system",
        "",
        "| subsystem | our Python LoC | paper's C/C++ LoC |",
        "|---|---|---|",
    ]
    for label, subdir, paper in rows:
        loc = _count_loc(os.path.join(src, subdir))
        lines.append(f"| {label} | {loc} | {paper} |")
    lines.append("")
    lines.append(
        "> Our counts include docstrings (roughly a third of each module); "
        "the shape matches the paper's: the sandbox/codegen substrate "
        "dwarfs the kernel-resident ASH support, which is why the paper "
        "argues ASHs are cheap to add to an OS."
    )
    lines.append("")
    return "\n".join(lines)


def capture_canonical_telemetry(metrics_out: str | None,
                                trace_out: str | None = None) -> None:
    """Run the canonical telemetry capture and write its sidecars (by
    default over the committed pair; tier 1 redirects both and compares,
    ``test_canonical_sidecars_are_fresh``)."""
    from repro import telemetry
    from repro.bench.telemetry_cli import write_sidecars
    from repro.bench.workloads import (
        canary_rollout,
        remote_increment,
        tenant_world,
        udp_pingpong,
    )

    with telemetry.session() as sess:
        udp_pingpong(iters=2, warmup=1)
        remote_increment(mode="ash", iters=2, warmup=1)
        # a small live-ops rollout so the canonical sidecar carries the
        # liveops.* metrics and the rollout flight events
        canary_rollout(flows=2, staged_rounds=2, canary_rounds=2,
                       post_rounds=1, v2="identical")
        # a small two-tenant world (leaky aggressor vs. TCP and
        # active-message victims) so the sidecar carries the tenant.*
        # plane: admission, reclaim and quota counters
        tenant_world(scenario="leak", rounds=3)
    metrics_path, trace_path = write_sidecars(
        sess, "canonical", metrics_out, trace_out)
    print(f"wrote {metrics_path}")
    print(f"wrote {trace_path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", action="store_true",
                        help="also capture canonical telemetry sidecars")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="metrics sidecar path (implies --trace)")
    args = parser.parse_args()
    if args.trace or args.metrics_out is not None:
        capture_canonical_telemetry(args.metrics_out)
    sections = [HEADER, complexity_section()]
    seen = set()
    for name in ORDER:
        path = os.path.join(RESULTS, f"{name}.json")
        if not os.path.exists(path):
            sections.append(f"## {name}\n\n*(no results yet — run the "
                            f"benchmarks)*\n")
            continue
        with open(path) as fh:
            sections.append(table_md(json.load(fh)))
        seen.add(name)
    for path in sorted(glob.glob(os.path.join(RESULTS, "*.json"))):
        base = os.path.basename(path)
        if base.endswith((".telemetry.json", ".trace.json")):
            continue  # telemetry sidecars, not BenchTables
        name = os.path.splitext(base)[0]
        if name not in seen and name not in ORDER:
            with open(path) as fh:
                sections.append(table_md(json.load(fh)))
    with open(OUT, "w") as fh:
        fh.write("\n".join(sections))
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
