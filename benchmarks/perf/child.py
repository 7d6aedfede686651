"""One repetition of one workload, in a process of its own.

``run.py`` starts this file in a fresh interpreter for every repetition,
so import cost and peak RSS belong to the workload and nothing is warm
from the previous one.  The repetition is::

    calibrate | set up (imports, nodes, kernels, stacks, downloads) |
    run (Engine.run / the table drivers) | verify | calibrate

and the last line of standard output is one JSON object with the raw CPU
and wall seconds of each phase, both calibration readings, peak RSS, the
simulated observables and their digest, exact model counts, and the
operation tally.  With ``--profile`` (the traced repetition) the run
phase executes under ``cProfile``, the folded per-layer table is added and
the spans inside set-up and run are recorded too.  Which simulation substrate runs is chosen from outside, through
``REPRO_SIM_SUBSTRATE``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
BENCH_DIR = os.path.dirname(HERE)


class Spans:
    """Phase spans of one repetition, kept in memory."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.records), "name": name, "trace": self.trace_id,
               "parent": self._open[-1] if self._open else None,
               "start_s": time.perf_counter(), "end_s": None,
               "cpu_s": time.process_time()}
        self.records.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end_s"] = time.perf_counter()
            rec["cpu_s"] = time.process_time() - rec["cpu_s"]


def _percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return 0
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def _profiled(fn, enabled: bool):
    """Run ``fn()``; with ``enabled`` under cProfile, returning the folded
    per-layer self times."""
    if not enabled:
        fn()
        return None
    import cProfile
    import pstats

    import layers

    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    buckets, total = layers.fold(pstats.Stats(prof).stats)
    return {"layer_self_s": buckets, "profiled_total_s": total}


def run_world(args, spans: Spans, fine) -> dict:
    import worlds

    inputs = worlds.generate_inputs(args.workload, args.seed, args.smoke)
    setup_pacer = calib.Pacer(interleave=False)
    with spans.span("setup") as setup:
        world = worlds.BUILDERS[args.workload](inputs, fine)
    setup_pacer.finish()
    run_pacer = calib.Pacer(interleave=not args.profile)
    with spans.span("run") as run:
        profile = _profiled(lambda: world.run(run_pacer.tick), args.profile)
    run_pacer.finish()
    with spans.span("verify"):
        attempted, failed, notes = world.verify()
        observables = world.observables()
        counts = world.counts()
        ops = sorted(world.ops_ps())
        finish_ps = world.finish_ps()
        delivered = sum(fl.bytes_ok for fl in world.flows)
        world.close()
    elapsed_us = finish_ps / 1e6
    return {
        "setup": setup, "run": run, "profile": profile,
        "setup_pacer": setup_pacer, "run_pacer": run_pacer,
        "attempted": attempted, "failed": failed, "notes": notes,
        "digest": worlds.digest(observables),
        "counts": counts,
        "sim": {
            "sim_elapsed_us": elapsed_us,
            "sim_op_us_p50": _percentile(ops, 0.50) / 1e6,
            "sim_op_us_p99": _percentile(ops, 0.99) / 1e6,
            "sim_goodput_mbps":
                delivered * 8 / elapsed_us if elapsed_us else 0.0,
            "events_per_packet":
                counts["sim.engine.events_fired"]
                / max(1, counts["hw.nic.rx_frames"]),
            "ops": len(ops),
        },
    }


def run_paper_tables(args, spans: Spans, fine) -> dict:
    """The table drivers, observed through two seams: every kernel the
    drivers boot is remembered weakly, and each time an engine returns
    from ``run`` it and the kernels on it are asked for their public
    stats (and the run pacer is ticked with the events just fired).  The
    worlds the drivers build and discard are therefore counted without
    being kept alive (keeping them costs 800 MiB and doubles run time)."""
    import weakref

    import worlds

    setup_pacer = calib.Pacer(interleave=False)
    run_pacer = None          # created when set-up ends; the seam ticks it
    with spans.span("setup") as setup:
        with fine("setup.nodes"):
            from repro.kernel.kernel import Kernel
            from repro.sim.engine import Engine
            from repro.vcode import jit
        with fine("setup.installs"):
            runners, want_cells = worlds.load_paper_drivers(
                BENCH_DIR, args.smoke)
        # keyed weakly by the objects themselves: an id() can be handed
        # to the next world as soon as this one is collected
        kernel_keys = weakref.WeakKeyDictionary()   #: kernel -> serial
        engine_keys = weakref.WeakKeyDictionary()   #: engine -> [serial, fired]
        snapshots: dict[int, dict] = {}    #: last stats of each kernel
        engines: dict[int, dict] = {}      #: last stats of each engine
        peak_pending = [0]                 #: most events queued at a run's start
        serial = iter(range(1 << 62))
        boot, engine_run = Kernel.__init__, Engine.run

        def recording_boot(self, *a, **kw):
            boot(self, *a, **kw)
            kernel_keys[self] = next(serial)

        def recording_run(self, *a, **kw):
            peak_pending[0] = max(peak_pending[0], self.stats()["pending"])
            try:
                return engine_run(self, *a, **kw)
            finally:
                key = engine_keys.setdefault(self, [next(serial), 0])
                engines[key[0]] = stats = self.stats()
                run_pacer.tick(stats["fired"] - key[1])
                key[1] = stats["fired"]
                for kernel, kernel_key in list(kernel_keys.items()):
                    if kernel.engine is not self:
                        continue
                    node = kernel.node
                    snapshots[kernel_key] = {
                        "kernel": kernel.stats(),
                        "hits": node.dcache.hits,
                        "misses": node.dcache.misses,
                        "pktbuf": (node.pktpool.stats()["created"]
                                   if node.pktpool is not None else 0),
                    }

        Kernel.__init__, Engine.run = recording_boot, recording_run
    setup_pacer.finish()

    tables: list = []

    def drive():
        for runner in runners:
            with fine(f"run.{runner.__name__}"):
                tables.append(runner())
            run_pacer.tick(quantum)  # engine-free drivers: one slice each

    quantum = worlds.PAPER_QUANTUM
    run_pacer = calib.Pacer(interleave=not args.profile, quantum=quantum)
    with spans.span("run") as run:
        profile = _profiled(drive, args.profile)
    run_pacer.finish()
    Kernel.__init__, Engine.run = boot, engine_run

    kstats = [snap["kernel"] for snap in snapshots.values()]
    nics = [nic for ks in kstats for nic in ks["nics"].values()]
    events = sum(es["fired"] for es in engines.values())
    packets = sum(nic["rx_frames"] for nic in nics)
    hits = sum(snap["hits"] for snap in snapshots.values())
    misses = sum(snap["misses"] for snap in snapshots.values())

    with spans.span("verify"):
        cells = worlds.paper_cells(tables)
        errs = sorted(abs(m - p) / p * 100.0 for _, m, p in cells)
        # a cell that is not a positive number within PAPER_TOLERANCE_PCT
        # of the paper's is a failed op (nan fails the comparison too)
        failed = sum(1 for err in errs
                     if not err <= worlds.PAPER_TOLERANCE_PCT)
        round_trips = sorted(worlds.reported(tables, "us per round trip"))
        throughputs = sorted(worlds.reported(tables, "MB/s"))
        notes = [] if len(cells) == want_cells else [
            f"{len(cells)} paper-reference cells, expected {want_cells}"]
        failed += len(notes)
        observables = [[cid, m] for cid, m, _ in cells]
    return {
        "setup": setup, "run": run, "profile": profile,
        "setup_pacer": setup_pacer, "run_pacer": run_pacer,
        "attempted": len(cells), "failed": failed, "notes": notes,
        "digest": worlds.digest({"cells": observables}),
        "counts": {
            "sim.engine.events_fired": events,
            "sim.engine.cancelled":
                sum(es["cancelled"] for es in engines.values()),
            "sim.queues.overflow_spills":
                sum(es["queue"].get("overflow_spills", 0)
                    for es in engines.values()),
            "sim.queues.peak_pending": peak_pending[0],
            "hw.nic.rx_frames": packets,
            "hw.nic.rx_dropped": sum(nic["rx_dropped"] for nic in nics),
            "hw.nic.pktbuf_peak":
                max((snap["pktbuf"] for snap in snapshots.values()),
                    default=0),
            "hw.cache.miss_ratio":
                misses / (hits + misses) if hits + misses else 0.0,
            "kernel.kernel.rx_interrupts":
                sum(ks["rx_interrupts"] for ks in kstats),
            "kernel.kernel.ash_abort_fallbacks":
                sum(ks["ash_abort_fallbacks"] for ks in kstats),
            "kernel.scheduler.context_switches":
                sum(ks["context_switches"] for ks in kstats),
            "ash.system.invocations":
                sum(h["invocations"] for ks in kstats
                    for h in ks["ash"]["handlers"]),
            "vcode.jit.translations": jit.stats.misses,
            "net.tcp.retransmits": 0,
            "net.tcp.fast_recoveries": 0,
            "sim.faults.injected": 0,
            "ash.tenancy.clipped_frames": 0,
        },
        "sim": {
            "sim_elapsed_us":
                sum(es["now_ps"] for es in engines.values()) / 1e6,
            # the operation here is one round trip as the drivers report
            # it (every cell of Tables I and V and Fig. 4); goodput is the
            # median cell of the throughput tables (III and IV)
            "sim_op_us_p50": _percentile(round_trips, 0.50),
            "sim_op_us_p99": _percentile(round_trips, 0.99),
            "sim_goodput_mbps": _percentile(throughputs, 0.50) * 8.0,
            "events_per_packet": events / max(1, packets),
            "paper_err_median_pct": _percentile(errs, 0.50),
            "paper_err_max_pct": errs[-1] if errs else 0.0,
            "ops": len(round_trips),
        },
    }


def main(argv=None) -> int:
    cpu_at_entry = time.process_time()   # interpreter start-up so far
    wall_at_entry = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(REPO, "src"))
    sys.path.insert(0, HERE)
    spans = Spans(f"{args.workload}:{args.seed}")
    # the traced repetition also records the spans inside set-up and run
    fine = (spans.span if args.profile
            else (lambda name: contextlib.nullcontext()))
    runner = (run_paper_tables if args.workload == "paper_tables"
              else run_world)
    out = runner(args, spans, fine)

    setup, run = out.pop("setup"), out.pop("run")
    setup_pacer, run_pacer = out.pop("setup_pacer"), out.pop("run_pacer")
    # process start to the first simulated event, calibration excluded:
    # interpreter start-up is charged at the set-up phase's speed
    setup_cpu = cpu_at_entry + setup_pacer.cpu_s
    out.update({
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "substrate": os.environ.get("REPRO_SIM_SUBSTRATE", "fast"),
        "setup_cpu_s": setup_cpu,
        "setup_ref_s": setup_pacer.ref_s * setup_cpu / setup_pacer.cpu_s,
        "setup_wall_s": setup["end_s"] - setup["start_s"],
        "run_cpu_s": run_pacer.cpu_s,
        "run_ref_s": run_pacer.ref_s,
        "run_ref_slices": run_pacer.ref_slices,
        "run_wall_s": run["end_s"] - run["start_s"],
        "calib_s": setup_pacer.readings + run_pacer.readings,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": spans.records,
        "child_wall_s": time.perf_counter() - wall_at_entry,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
