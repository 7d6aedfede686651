#!/usr/bin/env python3
"""Macro scale benchmark: N-pair, M-flow, C-core worlds on both substrates.

Two kinds of numbers come out of one run:

* **Deterministic model metrics** — the simulated makespan of each
  configuration (``sim_elapsed_us``) and the event throughput *per
  simulated second* (``events_per_sim_s``).  These are pure functions
  of the model and are bit-stable across hosts; ``sim_elapsed_us`` is
  gated by ``check_bench_trend.py``.  The multicore payoff is measured
  here: the largest configuration is swept across 1/2/4 cores and the
  per-core curve must stay near-linear (see ``summary.core_sweep``).
* **Wall-clock metrics** — elapsed host seconds and events/sec for the
  legacy (heapq + bytes + scalar cache) and fast (calendar queue +
  vectorized cache + zero-copy packet path) substrates, plus the
  speedup.  These track the overhead of the reproduction itself and
  are excluded from the trend gate.

The fast substrate must never change the model: every workload-visible
observable (round-trip times, completion time, cache hits/misses,
interrupt and frame counts) is digested per substrate and the digests
must match exactly (``cycles_identical``) — including under SMP, where
RSS steering and per-core rings reorder work across cores but the
deterministic hash and per-core event ordering keep both substrates in
lockstep.

The world: N independent AN2 node pairs share one simulated engine;
each pair carries M concurrent flows cycling through three kinds:

* **udp** — ping-pong stressing the copy path and cache walks,
* **tcp** — connect + ping-pong (header prediction, checksum pass,
  retransmit timers armed and cancelled on every exchange),
* **ash** — raw AN2 frames dispatched to the sandboxed
  remote-increment handler (the paper's Table V workload).

Results land in ``BENCH_scale.json`` at the repo root; ``--quick``
shrinks the sweep for CI smoke runs, and ``--nodes/--flows/--cores/
--batch`` run a single custom configuration (echoed into the JSON
under ``cli`` so sweeps are reproducible without editing this file).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.bench.results import (on_both_substrates, plane_doc,  # noqa: E402
                                 plane_main)
from repro.bench.testbed import make_an2_pair                    # noqa: E402
from repro.bench.workloads import am_flow                        # noqa: E402
from repro.net.socket_api import make_stacks, tcp_pair           # noqa: E402
from repro.net.udp import UdpSocket                              # noqa: E402
from repro.sim.engine import Engine                              # noqa: E402
from repro.sim.units import CYCLE_PS                             # noqa: E402

FLOW_KINDS = ("udp", "tcp", "ash")

#: per-flow start offset step in cycles.  173 is coprime to the
#: 200-cycle charge quantum, so no two flows' quantum grids ever
#: phase-lock.  The offset is *pair-local* — flow j of pair i starts at
#: ``(j + 1 + i % 7) * 173`` cycles — so the ramp-in stays a few
#: hundred microseconds no matter how many pairs share the engine (a
#: global ramp over thousands of flows would swamp the makespan and
#: bury the multicore scaling signal under serial start-up time).
STAGGER_CYCLES = 173

#: overflow-spill budget for the largest configuration (satellite of
#: the SMP issue): with the calendar queue's bucket width auto-sized
#: from the timer horizon, TCP retransmit timers land in the wheel
#: instead of spilling to the unsorted overflow heap.  The historical
#: default-width runs spilled hundreds of times per run.
MAX_OVERFLOW_SPILLS = 50


class ScaleWorld:
    """N AN2 pairs x M flows on one engine of the given substrate."""

    def __init__(self, substrate: str, pairs: int, flows: int,
                 rounds: int, size: int, cores: int = 1,
                 batch: int | None = None,
                 mem_size: int = 16 * 1024 * 1024):
        self.engine = Engine(substrate=substrate)
        self.pairs = pairs
        self.flows = flows
        self.rounds = rounds
        self.size = size
        self.cores = cores
        self.done: list[bool] = []
        self.rt_ps: list[list[int]] = []  #: per-flow round-trip times
        #: simulated completion time of the last flow (ps).  Workload-
        #: visible, so substrate-invariant and part of the digest (the
        #: engine's own clock is not: legacy tombstone pops may advance
        #: it past the last real event).
        self.finish_ps = 0
        self.testbeds = []
        for i in range(pairs):
            tb = make_an2_pair(engine=self.engine, name_prefix=f"p{i}.",
                               mem_size=mem_size, ncores=cores,
                               rx_batch=batch)
            self.testbeds.append(tb)
            for j in range(flows):
                kind = FLOW_KINDS[(i * flows + j) % len(FLOW_KINDS)]
                self._add_flow(tb, i, j, kind)

    # -- flow builders -----------------------------------------------------
    def _track(self) -> tuple[int, list[int]]:
        idx = len(self.done)
        self.done.append(False)
        rts: list[int] = []
        self.rt_ps.append(rts)
        return idx, rts

    def _finish(self, idx: int) -> None:
        self.done[idx] = True
        self.finish_ps = max(self.finish_ps, self.engine.now)

    def _stagger_ps(self, i: int, j: int) -> int:
        return (j + 1 + i % 7) * STAGGER_CYCLES * CYCLE_PS

    def _vcis(self, j: int) -> tuple[int, int]:
        """(client->server, server->client) circuit pair for flow j, as
        ``make_stacks(tb, flow=j)`` assigns them."""
        return 2 * j + 1, 2 * j + 2

    def _add_flow(self, tb, i: int, j: int, kind: str) -> None:
        if kind == "udp":
            self._add_udp(tb, i, j)
        elif kind == "tcp":
            self._add_tcp(tb, i, j)
        else:
            self._add_ash(tb, i, j)

    def _add_udp(self, tb, i: int, j: int) -> None:
        idx, rts = self._track()
        cstack, sstack = make_stacks(tb, flow=j)
        c2s, s2c = self._vcis(j)
        csock = UdpSocket(cstack, 7001 + j, rx_vci=s2c, name=f"f{j}udpc")
        ssock = UdpSocket(sstack, 7001 + j, rx_vci=c2s, name=f"f{j}udps")
        rounds, size = self.rounds, self.size
        server_ip = sstack.ip
        stagger = self._stagger_ps(i, j)

        def server(proc):
            for _ in range(rounds):
                dg = yield from ssock.recvfrom(proc)
                yield from ssock.sendto(proc, dg.payload, dg.src_ip,
                                        dg.src_port)

        def client(proc):
            yield proc.engine.sleep(stagger)
            for _ in range(rounds):
                t0 = proc.engine.now
                yield from csock.sendto(proc, bytes(size), server_ip,
                                        7001 + j)
                yield from csock.recvfrom(proc)
                rts.append(proc.engine.now - t0)
            self._finish(idx)

        tb.server_kernel.spawn_process(f"f{j}udp-server", server)
        tb.client_kernel.spawn_process(f"f{j}udp-client", client)

    def _add_tcp(self, tb, i: int, j: int) -> None:
        idx, rts = self._track()
        conn_c, conn_s = tcp_pair(*make_stacks(tb, flow=j), 80 + j, 5000 + j)
        rounds, size = self.rounds, self.size
        stagger = self._stagger_ps(i, j)

        def server(proc):
            yield from conn_s.accept(proc)
            for _ in range(rounds):
                data = yield from conn_s.read(proc, size)
                yield from conn_s.write(proc, data)

        def client(proc):
            yield proc.engine.sleep(stagger)
            yield from conn_c.connect(proc)
            for _ in range(rounds):
                t0 = proc.engine.now
                yield from conn_c.write(proc, bytes(size))
                yield from conn_c.read(proc, size)
                rts.append(proc.engine.now - t0)
            self._finish(idx)

        tb.server_kernel.spawn_process(f"f{j}tcp-server", server)
        tb.client_kernel.spawn_process(f"f{j}tcp-client", client)

    def _add_ash(self, tb, i: int, j: int) -> None:
        idx, rts = self._track()
        ck = tb.client_kernel
        c2s, s2c = self._vcis(j)
        flow = am_flow(tb, c2s, s2c)
        rounds = self.rounds
        stagger = self._stagger_ps(i, j)

        def client(proc):
            yield proc.engine.sleep(stagger)
            for _ in range(rounds):
                _reply, ticks = yield from flow.request(proc)
                rts.append(ticks)
            self._finish(idx)

        flow.cli_ep.owner = ck.spawn_process(f"f{j}ash-client", client)

    # -- run + observables ---------------------------------------------------
    def run(self) -> float:
        """Drive the world to completion; returns wall-clock seconds."""
        t0 = time.perf_counter()
        self.engine.run()
        wall = time.perf_counter() - t0
        if not all(self.done):
            raise RuntimeError(
                f"scale world stalled: {self.done.count(False)} flows "
                f"unfinished (substrate={self.engine.substrate}, "
                f"cores={self.cores})"
            )
        return wall

    def digest(self) -> str:
        """Hash of every substrate-invariant observable.

        Round-trip times and the completion stamp are simulated
        durations recorded inside the workloads; cache/interrupt/frame
        counters and per-core RSS steering counts are model state.  The
        engine's own clock/stats are deliberately excluded — tombstone
        pops may advance the legacy clock past the last real event.
        """
        obs = {
            "rt_ps": self.rt_ps,
            "finish_ps": self.finish_ps,
            "nodes": [
                {
                    "name": node.name,
                    "dcache_hits": node.dcache.hits,
                    "dcache_misses": node.dcache.misses,
                    "rx_interrupts": node.kernel.rx_interrupts,
                    "nic_rx": {n.name: n.rx_frames for n in node.nics.values()},
                    "nic_tx": {n.name: n.tx_frames for n in node.nics.values()},
                    "rss": {n.name: n.rss.stats()["steered"]
                            for n in node.nics.values() if n.rss is not None},
                }
                for tb in self.testbeds
                for node in (tb.client, tb.server)
            ],
        }
        blob = json.dumps(obs, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def packets(self) -> int:
        return sum(
            nic.rx_frames
            for tb in self.testbeds
            for node in (tb.client, tb.server)
            for nic in node.nics.values()
        )


def run_config(cfg: dict) -> tuple[dict, bool]:
    """One configuration on both substrates: each substrate's fastest
    rep, and whether every rep's observable digests agreed.

    Wall-clock numbers are best-of-``reps`` with reps interleaved
    fast/legacy so background machine load hits both sides equally;
    simulated metrics are rep-invariant by construction.
    """
    best: dict[str, dict] = {}

    def rep(substrate: str) -> str:
        world = ScaleWorld(substrate, cfg["pairs"], cfg["flows"],
                           cfg["rounds"], cfg["size"],
                           cores=cfg["cores"], batch=cfg["batch"],
                           mem_size=cfg["mem_size"])
        wall = world.run()
        if substrate not in best or wall < best[substrate]["wall_s"]:
            stats = world.engine.stats()
            best[substrate] = {
                "wall_s": wall,
                "events": stats["fired"],
                "events_per_sec": stats["fired"] / wall,
                "packets": world.packets(),
                "packets_per_sec": world.packets() / wall,
                "finish_ps": world.finish_ps,
                "queue": stats["queue"],
                "cancelled": stats["cancelled"],
            }
        return world.digest()

    # a list, not a generator: every rep runs even after a divergence
    identical = all([on_both_substrates(rep)[1]
                     for _ in range(cfg["reps"])])
    return best, identical


def _entry(cfg: dict, best: dict, identical: bool) -> dict:
    legacy, fast = best["legacy"], best["fast"]
    # the calendar queue must not accumulate dead events: every
    # tombstone created by a heap-resident cancel is popped by the
    # time the world drains (wheel-resident cancels are removed
    # outright and never become tombstones)
    leftover = fast["queue"].get("tombstones", 0)
    if leftover:
        raise RuntimeError(
            f"{leftover} tombstones left in the calendar queue"
        )
    sim_s = fast["finish_ps"] / 1e12
    eps = fast["events"] / sim_s
    return {
        "pairs": cfg["pairs"],
        "nodes": cfg["pairs"] * 2,
        "flows": cfg["pairs"] * cfg["flows"],
        "rounds": cfg["rounds"],
        "payload_bytes": cfg["size"],
        "cores": cfg["cores"],
        "rx_batch": cfg["batch"],
        # -- deterministic model metrics (sim_elapsed_us is trend-gated)
        "sim_elapsed_us": round(fast["finish_ps"] / 1e6, 3),
        "events_per_sim_s": round(eps, 1),
        "events_per_sim_s_per_core": round(eps / cfg["cores"], 1),
        "overflow_spills": fast["queue"].get("overflow_spills", 0),
        "cycles_identical": identical,
        # -- wall-clock metrics (host-dependent, trend-exempt)
        "legacy": {k: v for k, v in legacy.items() if k != "finish_ps"},
        "fast": {k: v for k, v in fast.items() if k != "finish_ps"},
        "speedup": round(legacy["wall_s"] / fast["wall_s"], 2),
    }


def _configs(quick: bool) -> list[dict]:
    def cfg(pairs, flows, rounds, size, cores=1, batch=None, reps=1,
            mem_mb=16, sweep=False):
        return {"pairs": pairs, "flows": flows, "rounds": rounds,
                "size": size, "cores": cores, "batch": batch,
                "reps": reps, "mem_size": mem_mb * 1024 * 1024,
                "sweep": sweep}

    if quick:
        return [cfg(1, 3, 4, 512, cores=2, reps=1)]
    return [
        # single-core ladder: the pre-SMP envelope, kept for trend
        # continuity on the serial path
        cfg(2, 3, 8, 2048, reps=2),
        cfg(8, 3, 10, 16384, reps=2),
        cfg(10, 3, 10, 16384, reps=2),
        # mid-size SMP world with explicit batching
        cfg(10, 12, 3, 1024, cores=2, batch=8),
        # the largest world — 100 nodes / 3000 flows — swept across
        # 1/2/4 cores for the per-core scaling curve
        cfg(50, 60, 2, 256, cores=1, sweep=True),
        cfg(50, 60, 2, 256, cores=2, sweep=True),
        cfg(50, 60, 2, 256, cores=4, sweep=True),
    ]


def _custom_config(cli: dict) -> dict:
    """The single configuration ``--nodes/--flows/--cores/--batch/
    --rounds/--size`` describe."""
    nodes = cli["nodes"] if cli["nodes"] is not None else 2
    if nodes < 2 or nodes % 2:
        raise SystemExit("--nodes must be an even number >= 2")
    pairs = nodes // 2
    total_flows = cli["flows"] if cli["flows"] is not None else 3 * pairs
    return {
        "pairs": pairs, "flows": max(1, round(total_flows / pairs)),
        "rounds": cli["rounds"] or 2, "size": cli["size"] or 256,
        "cores": cli["cores"] or 1, "batch": cli["batch"], "reps": 1,
        "mem_size": 16 * 1024 * 1024,
    }


def bench(quick: bool, cli: dict | None = None) -> dict:
    out = plane_doc("scale_substrate", quick, configs=[])
    if cli is not None:
        cfg = _custom_config(cli)
        configs = [cfg]
        out["cli"] = {"nodes": cfg["pairs"] * 2,
                      "flows": cfg["pairs"] * cfg["flows"],
                      "cores": cfg["cores"],
                      "batch": cfg["batch"]}
    else:
        configs = _configs(quick)
    sweep: list[dict] = []
    for cfg in configs:
        entry = _entry(cfg, *run_config(cfg))
        out["configs"].append(entry)
        if cfg.get("sweep"):
            sweep.append(entry)
        print(f"pairs={entry['pairs']} flows={entry['flows']} "
              f"rounds={entry['rounds']} size={entry['payload_bytes']}B "
              f"cores={entry['cores']}  sim {entry['sim_elapsed_us']:.0f}us  "
              f"eps {entry['events_per_sim_s']:.2e}  "
              f"legacy {entry['legacy']['wall_s']:.3f}s  "
              f"fast {entry['fast']['wall_s']:.3f}s  "
              f"speedup {entry['speedup']:.2f}x"
              f"{'' if entry['cycles_identical'] else '  OBSERVABLES DIVERGE!'}")
    out["summary"] = {
        "all_cycles_identical": all(
            c["cycles_identical"] for c in out["configs"]
        ),
    }
    if sweep:
        base = sweep[0]
        curve = {
            str(e["cores"]): {
                "events_per_sim_s": e["events_per_sim_s"],
                "linear_fraction": round(
                    e["events_per_sim_s"]
                    / (base["events_per_sim_s"] * e["cores"]), 3),
            }
            for e in sweep
        }
        out["summary"]["core_sweep"] = curve
        largest = sweep[-1]
        # the multicore payoff must be real: >=0.8x of linear from
        # 1 -> 4 cores on the 100-node / 3000-flow world
        frac = curve[str(largest["cores"])]["linear_fraction"]
        print(f"core sweep 1->{largest['cores']}: "
              f"{frac * 100:.0f}% of linear")
        if frac < 0.8:
            raise RuntimeError(
                f"multicore scaling collapsed: {frac:.2f}x of linear "
                f"from 1 to {largest['cores']} cores (need >= 0.8)"
            )
        spills = largest["overflow_spills"]
        if spills > MAX_OVERFLOW_SPILLS:
            raise RuntimeError(
                f"{spills} calendar-queue overflow spills on the largest "
                f"config (budget {MAX_OVERFLOW_SPILLS}): bucket width no "
                f"longer covers the timer horizon"
            )
    return out


GATES = [
    (lambda s: s["all_cycles_identical"],
     "substrates disagree on simulated observables"),
]
EXTRA_ARGS = [
    ("--nodes", dict(type=int,
                     help="custom config: total nodes (even; 2 per pair)")),
    ("--flows", dict(type=int,
                     help="custom config: total flows across all pairs")),
    ("--cores", dict(type=int,
                     help="custom config: simulated CPUs per node")),
    ("--batch", dict(type=int,
                     help="custom config: rx descriptors drained per kick")),
    ("--rounds", dict(type=int, help="custom config: request/response "
                                     "rounds per flow (default 2)")),
    ("--size", dict(type=int, help="custom config: payload bytes of the "
                                   "udp/tcp flows (default 256)")),
]

if __name__ == "__main__":
    sys.exit(plane_main("scale", bench, GATES, EXTRA_ARGS))
