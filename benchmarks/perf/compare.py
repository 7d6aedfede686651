#!/usr/bin/env python3
"""Compare result files written by ``run.py --out``.

    python3 benchmarks/perf/compare.py A.json B.json [C.json ...]

``A`` is the base; every later file is compared against it.  One row per
workload x end-to-end metric: both reported values (medians over the
repetitions; slice-wise for ``run_s``), both quartile pairs, the bound
applied and a verdict:

``same``        the medians differ by no more than the bound;
``better``      B's median is better than A's by more than the bound;
``worse``       B's median is worse than A's by more than the bound;
``unresolved``  the run-to-run spread of either side (quartile distance
                over median) is wider than the bound -- unless every run
                of one side beats every run of the other, which decides
                it -- or the calibration kernel was too unsteady
                (``calib_cv`` above the limit) for host seconds to mean
                anything.

Simulated statistics are exact for one seed, so between files of one seed
they are compared as counts: any difference at all is ``better`` or
``worse``.  Between different seeds they fall back to their bound.
A workload whose output checks failed on either side (``correct`` false:
failed operations, digests that differ between repetitions or between
substrates) or that is missing from B gets an ``output_checks`` row that
reads ``worse``.  Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics as M                                           # noqa: E402


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values: list[float]) -> float:
    lo, hi = quartiles(values)
    med = statistics.median(values)
    return (hi - lo) / med if med else 0.0


def worsening(base: float, new: float, better: str) -> float:
    """Signed share of ``base`` by which ``new`` is worse (negative =
    better)."""
    if base == 0:
        base = 1e-300           # any move off an exact 0 is unbounded
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def verdict(a_runs: list[float], b_runs: list[float], better: str,
            bound: float, exact: bool, steady: bool = True,
            a_med: float | None = None, b_med: float | None = None) -> str:
    """The rule in the module docstring, for one metric of one workload.
    ``a_med`` / ``b_med`` override the plain median of the runs with the
    figure ``run.py`` reported (its slice-wise median for ``run_s``)."""
    a_med = statistics.median(a_runs) if a_med is None else a_med
    b_med = statistics.median(b_runs) if b_med is None else b_med
    worse_by = worsening(a_med, b_med, better)
    if exact:
        return "same" if a_med == b_med else (
            "worse" if worse_by > 0 else "better")
    if better == "lower":
        b_wins = max(b_runs) < min(a_runs)
        a_wins = max(a_runs) < min(b_runs)
    else:
        b_wins = min(b_runs) > max(a_runs)
        a_wins = min(a_runs) > max(b_runs)
    noisy = max(spread(a_runs), spread(b_runs)) > bound or not steady
    if noisy and not (a_wins or b_wins):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def rows(a: dict, b: dict):
    """Yield (workload, metric, (a_value, a_runs), (b_value, b_runs),
    (unit, better, bound applied), verdict)."""
    for workload, ra in a["workloads"].items():
        rb = b["workloads"].get(workload)
        # failed checks per side; a side that is missing counts as one
        bad = [float(len(r["notes"]) + r["failed"]) if r else 1.0
               for r in (ra, rb)]
        if rb is None or not (ra["correct"] and rb["correct"]):
            yield (workload, "output_checks", (bad[0], [bad[0]]),
                   (bad[1], [bad[1]]), ("count", "lower", 0.0), "worse")
        if rb is None:
            continue
        same_seed = (ra["seed"], ra["smoke"]) == (rb["seed"], rb["smoke"])
        steady = max(ra["calib_cv"], rb["calib_cv"]) <= M.CALIB_CV_LIMIT
        for name, (unit, better, bound, exact) in M.END_TO_END.items():
            a_runs = ra["runs"].get(name, [ra["values"][name]])
            b_runs = rb["runs"].get(name, [rb["values"][name]])
            host_time = name in ("setup_s", "run_s")
            as_count = exact and same_seed
            a_val, b_val = ra["values"][name], rb["values"][name]
            v = verdict(a_runs, b_runs, better, bound, as_count,
                        steady or not host_time, a_val, b_val)
            yield (workload, name, (a_val, a_runs), (b_val, b_runs),
                   (unit, better, 0.0 if as_count else bound), v)
        # the issue's end-to-end figures the driver cannot gate
        for name, (unit, better) in M.UNGATED_END_TO_END.items():
            if name in ra["values"] and name in rb["values"] and same_seed:
                a_val, b_val = ra["values"][name], rb["values"][name]
                v = verdict([a_val], [b_val], better, 0.0, True)
                yield (workload, name, (a_val, [a_val]), (b_val, [b_val]),
                       (unit, better, 0.0), v)


def _cell(side: tuple[float, list[float]]) -> str:
    value, runs = side
    lo, hi = quartiles(runs)
    return f"{value:11.5g} [{lo:9.4g},{hi:9.4g}]"


def main(argv=None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))
    any_worse = False
    for path, doc in zip(paths[1:], docs[1:]):
        print(f"\nA = {paths[0]}\nB = {path}")
        print(f"{'workload':15s} {'metric':21s} {'A median [q1,q3]':>33s} "
              f"{'B median [q1,q3]':>33s} {'bound':>6s}  verdict")
        tally: dict[str, int] = {}
        for workload, name, a_side, b_side, spec, v in rows(docs[0], doc):
            tally[v] = tally.get(v, 0) + 1
            any_worse |= v == "worse"
            print(f"{workload:15s} {name:21s} {_cell(a_side):>33s} "
                  f"{_cell(b_side):>33s} {spec[2]:6g}  {v}")
        print("  ".join(f"{k}: {n}" for k, n in sorted(tally.items())))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
