#!/usr/bin/env python3
"""The repository's performance benchmark: one command, two clocks.

Driver form (the contract in BENCHMARK.json)::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

measures one workload and prints, as the last line of standard output,
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` every
end-to-end metric (fresh-process repetitions, two at a time, until ``S``
seconds are used; medians reported), with ``--trace 1`` every per-layer
metric (micro-probes, one untraced, one ``cProfile``-traced and one
legacy-substrate repetition; spans and the folded layer table go to
``benchmarks/perf/out/<workload>.trace.json``).

Human form::

    python3 benchmarks/perf/run.py [--layers] [--smoke] [--seed N]
                                   [--out results.json]

runs all five workloads, prints every end-to-end metric by name with its
unit, direction, bound and sample count (``--layers``: every per-layer
metric instead), saves the result for ``compare.py``, and exits non-zero
if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib                                                  # noqa: E402
import metrics as M                                           # noqa: E402
from layers import LAYERS, OTHER                              # noqa: E402
from worlds import WORKLOADS                                  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
MIN_REPS, MAX_REPS = 4, 20
#: repetitions in flight at once, one per core of the 2-core box the
#: benchmark was defined on.  Each is still one single-threaded process;
#: alternating blocks of 6 sequential and 6 paired repetitions gave the
#: same ``run_s`` mean (1.352 / 1.361) and spread (CV 0.034 / 0.033), so
#: pairing doubles the samples a run's medians are taken over
LANES = 2
CHILD_TIMEOUT_S = 150
DEFAULT_SEED = 1
DEFAULT_SECONDS = 22


class BenchError(RuntimeError):
    """A repetition could not be run at all (as opposed to a failed op)."""


# ---------------------------------------------------------------------------
# subprocesses
# ---------------------------------------------------------------------------

def _run_json(script: str, args: list[str], env_extra: dict | None = None) -> dict:
    """Run one of this directory's scripts in a fresh interpreter and
    parse the JSON object on the last line of its standard output."""
    env = dict(os.environ)
    env.pop("REPRO_SIM_SUBSTRATE", None)
    # hash randomisation gives every process another dict/set layout; with
    # it pinned, 20 interleaved repetitions spread 0.030 instead of 0.042
    env["PYTHONHASHSEED"] = "0"
    env.update(env_extra or {})
    cmd = [sys.executable, os.path.join(HERE, script), *args]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} {' '.join(args)}: timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} {' '.join(args)}: exit "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{script}: no JSON result on stdout") from exc


def run_rep(workload: str, seed: int, smoke: bool, profile: bool = False,
            substrate: str | None = None) -> dict:
    args = ["--workload", workload, "--seed", str(seed)]
    if smoke:
        args.append("--smoke")
    if profile:
        args.append("--profile")
    env = {"REPRO_SIM_SUBSTRATE": substrate} if substrate else None
    return _run_json("child.py", args, env)


def run_probes(smoke: bool) -> dict:
    return _run_json("probes.py", ["--quick"] if smoke else [])


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def calib_cv(reps: list[dict]) -> float:
    """Coefficient of variation, across repetitions, of each repetition's
    mean calibration reading: how much the box's speed moved between
    them.  (Dose-to-dose scatter inside a repetition is what the
    interleaving absorbs; it is not counted here.)"""
    means = [statistics.fmean(rep["calib_s"]) for rep in reps]
    if len(means) < 2:
        return 0.0
    return statistics.pstdev(means) / statistics.fmean(means)


def slicewise_median(reps: list[dict], key: str) -> float:
    """Sum over slices of the median, across repetitions, of each slice.

    Every repetition of one seed cuts its run phase at the same simulated
    instants (see ``calib.Pacer``), so slice *i* is the same work each
    time and a noise burst in one slice of one repetition is voted out
    slice by slice -- steadier than the median of the totals.
    """
    slices = [rep[key] for rep in reps]
    if len({len(s) for s in slices}) != 1:      # cannot happen on one seed
        return statistics.median(sum(s) for s in slices)
    return sum(statistics.median(col) for col in zip(*slices))


def check_reps(reps: list[dict], what: str) -> list[str]:
    """Output checks that span repetitions: every repetition of one seed
    must produce the same observables digest."""
    digests = {rep["digest"] for rep in reps}
    if len(digests) > 1:
        return [f"{what}: observables digest differs between repetitions "
                f"of one seed ({sorted(digests)})"]
    return []


def timed_reps(workload: str, seed: int, seconds: float, smoke: bool,
               log=None) -> list[dict]:
    """Fresh-process repetitions, ``LANES`` at a time, until ``seconds``
    are used (smoke: one per lane)."""
    t0 = time.perf_counter()
    reps: list[dict] = []
    longest = 0.0
    lock = threading.Lock()

    def lane() -> None:
        nonlocal longest
        while True:
            t_rep = time.perf_counter()
            rep = run_rep(workload, seed, smoke)
            with lock:
                longest = max(longest, time.perf_counter() - t_rep)
                reps.append(rep)
                count, slowest = len(reps), longest
            if log:
                log(f"  {workload} rep {count}: run "
                    f"{rep['run_cpu_s']:.3f}s cpu = "
                    f"{rep['run_ref_s']:.3f}s at reference speed")
            out_of_time = time.perf_counter() - t0 + slowest > seconds
            if (smoke or (out_of_time and count >= MIN_REPS)
                    or count + LANES - 1 >= MAX_REPS):
                return

    with ThreadPoolExecutor(LANES) as pool:
        for done in [pool.submit(lane) for _ in range(LANES)]:
            done.result()               # re-raises a lane's BenchError
    return reps


def measure_e2e(workload: str, seed: int, seconds: float, smoke: bool,
                log=None) -> dict:
    """Medians of the host metrics over the repetitions, the exact
    simulated metrics, and the output checks."""
    t0 = time.perf_counter()
    reps = timed_reps(workload, seed, seconds, smoke, log)
    first = reps[0]
    runs = {
        "setup_s": [r["setup_ref_s"] for r in reps],
        "run_s": [r["run_ref_s"] for r in reps],
        "peak_rss_mib": [r["peak_rss_mib"] for r in reps],
    }
    values = {name: statistics.median(vals) for name, vals in runs.items()}
    values["run_s"] = slicewise_median(reps, "run_ref_slices")
    for name in M.REPORT_ORDER:
        if name in first["sim"]:
            values[name] = first["sim"][name]
    failed = max(r["failed"] for r in reps)
    values["failed_ops_ratio"] = failed / first["attempted"]
    notes = [n for r in reps for n in r["notes"]] + check_reps(reps, workload)
    return {
        "workload": workload, "seed": seed, "smoke": smoke,
        "values": values, "runs": runs, "reps": len(reps),
        "ops": first["sim"]["ops"],
        "attempted": first["attempted"], "failed": failed,
        "correct": failed == 0 and not notes, "notes": notes,
        "calib_cv": calib_cv(reps), "digest": first["digest"],
        "wall_s": time.perf_counter() - t0,
    }


def measure_layers(workload: str, seed: int, smoke: bool,
                   probes: dict | None = None, log=None) -> dict:
    """The per-layer pass for one workload: micro-probes, an untraced
    repetition (model counts, host rates), a traced one (spans + folded
    profile) and a legacy-substrate one (digest must equal fast)."""
    t0 = time.perf_counter()
    probes = probes if probes is not None else run_probes(smoke)
    plain = run_rep(workload, seed, smoke)
    traced = run_rep(workload, seed, smoke, profile=True)
    legacy = run_rep(workload, seed, smoke, substrate="legacy")
    if log:
        log(f"  {workload}: plain {plain['run_cpu_s']:.2f}s, traced "
            f"{traced['run_cpu_s']:.2f}s, legacy {legacy['run_cpu_s']:.2f}s")

    notes = list(plain["notes"]) + check_reps([plain, traced], workload)
    if legacy["digest"] != plain["digest"]:
        notes.append(f"{workload}: legacy substrate digest "
                     f"{legacy['digest'][:12]} != fast {plain['digest'][:12]}")
    failed = max(plain["failed"], traced["failed"], legacy["failed"])

    values: dict[str, float] = dict(probes["probes"])
    for name in M.UNGATED_END_TO_END:
        values[name] = plain["sim"].get(name, 0.0)
    values["failed_ops_ratio"] = failed / plain["attempted"]
    values.update(plain["counts"])
    reps = [plain, traced, legacy]
    values.update({
        "host.calib_s": statistics.fmean(
            c for r in reps for c in r["calib_s"]),
        "host.calib_cv": calib_cv(reps + [probes]),
        "host.setup_wall_s": plain["setup_wall_s"],
        "host.run_wall_s": plain["run_wall_s"],
        "host.events_per_s":
            plain["counts"]["sim.engine.events_fired"] / plain["run_wall_s"],
        "host.packets_per_s":
            plain["counts"]["hw.nic.rx_frames"] / plain["run_wall_s"],
    })

    profile = traced["profile"]
    total = profile["profiled_total_s"]
    packets = max(1, traced["counts"]["hw.nic.rx_frames"])
    for layer in (*LAYERS, OTHER):
        self_s = profile["layer_self_s"][layer]
        values[f"trace.{layer}.self_share"] = self_s / total if total else 0.0
        if layer != OTHER:
            values[f"trace.{layer}.self_us_per_packet"] = \
                self_s / packets * 1e6
    values["trace.overhead_ratio"] = traced["run_ref_s"] / plain["run_ref_s"]
    layer_sum = sum(profile["layer_self_s"].values())
    if total and abs(layer_sum - total) / total > 0.02:
        notes.append(f"{workload}: layer self times sum to {layer_sum:.4f}s, "
                     f"profiled total {total:.4f}s")

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{workload}.trace.json")
    with open(trace_path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "smoke": smoke,
                   "spans": traced["spans"], "profile": profile,
                   "traced_run_cpu_s": traced["run_cpu_s"],
                   "untraced_run_cpu_s": plain["run_cpu_s"]}, fh, indent=1)
        fh.write("\n")
    return {
        "workload": workload, "seed": seed, "smoke": smoke,
        "values": values, "attempted": plain["attempted"], "failed": failed,
        "correct": failed == 0 and not notes, "notes": notes,
        "trace_file": os.path.relpath(trace_path),
        "wall_s": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def contract_line(result: dict, catalogue: dict) -> str:
    """The driver's result object: exactly the catalogue's metrics."""
    out = {}
    for name, spec in catalogue.items():
        out[name] = {"value": result["values"][name], "unit": spec[0]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": out})


def _fmt(v: float) -> str:
    return f"{v:.6g}" if abs(v) < 1e6 else f"{v:.0f}"


def print_e2e(results: list[dict]) -> None:
    arrow = {"lower": "down", "higher": "up"}
    for res in results:
        print(f"\n== {res['workload']}  (seed {res['seed']}, {res['reps']} "
              f"reps, {res['ops']} ops, calib_cv {res['calib_cv']:.3f}, "
              f"{res['wall_s']:.1f}s)")
        print(f"  {'metric':22s} {'value':>14s} {'unit':6s} {'better':6s} "
              f"{'bound':>6s} {'samples':>7s}")
        for name in M.REPORT_ORDER:
            if name not in res["values"]:
                continue
            if name in M.END_TO_END:
                unit, better, bound, exact = M.END_TO_END[name]
            else:
                (unit, better), bound, exact = M.UNGATED_END_TO_END[name], 0, True
            # one seed, one commit: a simulated figure may not move at all
            bound_txt = "0" if exact else f"{bound:g}"
            samples = (res["reps"] if not exact else
                       res["ops"] if name in M.END_TO_END else
                       res["attempted"])
            value = _fmt(res["values"][name])
            if (name in ("setup_s", "run_s")
                    and res["calib_cv"] > M.CALIB_CV_LIMIT):
                value = f"unresolved({value})"
            print(f"  {name:22s} {value:>14s} {unit:6s} {arrow[better]:6s} "
                  f"{bound_txt:>6s} {samples:>7d}")
        for note in res["notes"]:
            print(f"  CHECK FAILED: {note}")


def print_layers(results: list[dict]) -> None:
    names = list(M.PER_LAYER)
    width = max(len(n) for n in names)
    head = "".join(f"{r['workload'][:14]:>15s}" for r in results)
    print(f"\n{'per-layer metric':{width}s} {'unit':6s}{head}")
    for name in names:
        row = "".join(f"{_fmt(r['values'][name]):>15s}" for r in results)
        print(f"{name:{width}s} {M.PER_LAYER[name][0]:6s}{row}")
    for res in results:
        print(f"trace file: {res['trace_file']}")
        for note in res["notes"]:
            print(f"CHECK FAILED ({res['workload']}): {note}")


def save(path: str, kind: str, results: list[dict]) -> None:
    doc = {"schema": "repro-perf/1", "kind": kind,
           "calib_ref_s": calib.CALIB_REF_S,
           "workloads": {r["workload"]: r for r in results}}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="driver form: measure this one workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver form: 1 = the per-layer pass")
    parser.add_argument("--layers", action="store_true",
                        help="human form: the per-layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at about 1/20 size")
    parser.add_argument("--out", default=None,
                        help="human form: result file for compare.py "
                             "(default benchmarks/perf/out/<kind>.json)")
    args = parser.parse_args(argv)

    try:
        if args.workload:                       # driver form
            if args.trace:
                res = measure_layers(args.workload, args.seed, args.smoke)
                print(contract_line(res, M.PER_LAYER))
            else:
                res = measure_e2e(args.workload, args.seed, args.seconds,
                                  args.smoke)
                print(contract_line(res, M.END_TO_END))
            for note in res["notes"]:
                print(f"CHECK FAILED: {note}", file=sys.stderr)
            return 0        # the verdict is the line's ``correct`` field

        t0 = time.perf_counter()

        def log(msg: str) -> None:
            print(msg, file=sys.stderr, flush=True)

        if args.layers:
            kind = "layers"
            probes = run_probes(args.smoke)
            results = [measure_layers(w, args.seed, args.smoke, probes, log)
                       for w in WORKLOADS]
            print_layers(results)
        else:
            kind = "e2e"
            results = [measure_e2e(w, args.seed, args.seconds, args.smoke, log)
                       for w in WORKLOADS]
            print_e2e(results)
        out = args.out or os.path.join(
            OUT_DIR, f"{kind}{'-smoke' if args.smoke else ''}.json")
        save(out, kind, results)
        ok = all(r["correct"] for r in results)
        print(f"\n{kind} pass: {time.perf_counter() - t0:.1f}s wall, "
              f"{len(results)} workloads, saved {os.path.relpath(out)}, "
              f"{'all output checks passed' if ok else 'OUTPUT CHECKS FAILED'}")
        return 0 if ok else 1
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
