#!/usr/bin/env python3
"""The operational planes under stress: crash, faults, live ops, tenancy,
many-flow fairness and the N-pair x M-flow x C-core scale sweep.

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
* **fairness** — 16 or 24 staggered TCP flows share one AN2 link, so
  the congestion controller arbitrates the bandwidth: Jain's index over
  per-flow goodputs must reach ``JAIN_FLOOR``; the aggregate goodput is
  reported, not gated.
* **scale** — a ``ScaleWorld`` (N pairs x M flows x C cores): simulated
  makespan and events per simulated second, no calendar tombstones
  left.  The 100-node / 3000-flow world runs at 1, 2 and 4 cores and
  must stay within ``LINEAR_FLOOR`` of linear scaling, with at most
  ``MAX_OVERFLOW_SPILLS`` overflow spills.

The figures that compare worlds (``goodput_vs_baseline``,
``sack_speedup``, ``isolation_ratio``, the summary's curves) are
computed from the rows, never by running a world again.  Results land
in ``BENCH_planes.json`` at the repo root; ``--quick`` shrinks the
crash, impairment and tenancy sweeps and runs one small fairness and
one small scale world.  No figure reads the host clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.bench.results import (on_both_substrates, plane_doc,  # noqa: E402
                                 plane_main)
from repro.bench.testbed import make_an2_pair                    # noqa: E402
from repro.bench.workloads import (am_flow, canary_rollout,      # noqa: E402
                                   chaos_transfer, recovery_us,
                                   seeded_payload, tcp_bulk,
                                   tenant_noisy_neighbor)
from repro.kernel.upcall import UpcallHandler                    # noqa: E402
from repro.net.socket_api import make_stacks, tcp_pair           # noqa: E402
from repro.net.udp import UdpSocket                              # noqa: E402
from repro.sim.engine import Engine                              # noqa: E402
from repro.sim.units import CYCLE_PS                             # noqa: E402

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

#: AIMD must converge: Jain's index over a fairness row's flows
JAIN_FLOOR = 0.9

#: fairness: connect-time stagger between consecutive flows (25 us)
STAGGER_PS = 25_000_000

#: the multicore payoff must be real: events per simulated second at
#: the core sweep's most cores, as a share of linear from its fewest
LINEAR_FLOOR = 0.8

#: overflow spills allowed on the largest scale world: the calendar
#: queue's bucket width is sized from the timer horizon, so TCP
#: retransmit timers land in the wheel (default widths spilled hundreds)
MAX_OVERFLOW_SPILLS = 50

FLOW_KINDS = ("udp", "tcp", "ash")

#: scale: per-flow start offset step in cycles.  173 is coprime to the
#: 200-cycle charge quantum, so no two flows' quantum grids ever
#: phase-lock.  The offset is *pair-local* — flow j of pair i starts at
#: ``(j + 1 + i % 7) * 173`` cycles — so the ramp-in stays a few
#: hundred microseconds no matter how many pairs share the engine (a
#: global ramp over thousands of flows would swamp the makespan and
#: bury the multicore scaling signal under serial start-up time).
STAGGER_CYCLES = 173

#: and pair i starts ``i`` picoseconds behind that: every pair has its
#: own offset.  Pairs i and i + 7 would otherwise run in lockstep and
#: meet on every tick, so that each same-tick tie the engine resolves
#: by order (a pass-through, an inline wake-up, a charge that runs on
#: into the next) would be decided by which pairs coincide, not by
#: what one pair does
PAIR_SKEW_PS = 1


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


def fairness(substrate: str, nflows: int, nbytes: int, seed: int) -> dict:
    """``nflows`` staggered bulk transfers over one shared link: each
    flow's goodput over its own transfer window, Jain's index over
    them, and the aggregate over the union of the windows."""
    tb = make_an2_pair(engine=Engine(substrate=substrate))
    flows = [
        tcp_bulk(tb, seeded_payload(seed + j, nbytes), flow=j,
                 start_ps=j * STAGGER_PS, linger_us=0, rto_us=20_000.0)
        for j in range(nflows)
    ]
    tb.run()

    for j, xfer in enumerate(flows):
        xfer.check(f"flow {j} ({substrate})")
    per_flow = [{
        "flow": j,
        "digest": hashlib.sha256(xfer.got).hexdigest()[:16],
        "elapsed_us": (xfer.t1 - xfer.t0) / 1_000_000,
        "goodput_mbps": nbytes * 8 / ((xfer.t1 - xfer.t0) / 1e12) / 1e6,
        "retransmits": (xfer.client.tcb.retransmits
                        + xfer.client.tcb.fast_retransmits),
        "cc_digest": xfer.client.congestion_digest()[:16],
    } for j, xfer in enumerate(flows)]
    goodputs = [f["goodput_mbps"] for f in per_flow]
    total, squares = sum(goodputs), sum(x * x for x in goodputs)
    span_ps = max(x.t1 for x in flows) - min(x.t0 for x in flows)
    return {
        "flows": nflows,
        "bytes_per_flow": nbytes,
        "sack": True,    # layout field: fairness is measured with SACK on
        "jain_index": round((total * total) / (nflows * squares), 4),
        "goodput_mbps": nflows * nbytes * 8 / (span_ps / 1e12) / 1e6,
        "min_flow_mbps": round(min(goodputs), 3),
        "max_flow_mbps": round(max(goodputs), 3),
        "per_flow": per_flow,
    }


class ScaleWorld:
    """N AN2 pairs x M flows on one engine of the given substrate."""

    def __init__(self, substrate: str, pairs: int, flows: int,
                 rounds: int, size: int, cores: int = 1,
                 batch: int | None = None,
                 mem_size: int = 16 * 1024 * 1024):
        self.engine = Engine(substrate=substrate)
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
                getattr(self, f"_add_{kind}")(tb, i, j)

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
        return (j + 1 + i % 7) * STAGGER_CYCLES * CYCLE_PS + i * PAIR_SKEW_PS

    def _vcis(self, j: int) -> tuple[int, int]:
        """(client->server, server->client) circuit pair for flow j, as
        ``make_stacks(tb, flow=j)`` assigns them."""
        return 2 * j + 1, 2 * j + 2

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
    def run(self) -> None:
        """Drive the world to completion."""
        self.engine.run()
        if not all(self.done):
            raise RuntimeError(
                f"scale world stalled: {self.done.count(False)} flows "
                f"unfinished (substrate={self.engine.substrate}, "
                f"cores={self.cores})"
            )

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


def scale(substrate: str, pairs: int, flows: int, rounds: int, size: int,
          cores: int, batch: int | None, mem_mb: int) -> dict:
    """One ``ScaleWorld``: makespan, events per simulated second, the
    engine's ledger and queue counters, the observables' digest."""
    world = ScaleWorld(substrate, pairs, flows, rounds, size, cores=cores,
                       batch=batch, mem_size=mem_mb * 1024 * 1024)
    world.run()
    stats = world.engine.stats()
    eps = stats["fired"] / (world.finish_ps / 1e12)
    return {
        "digest": world.digest(),
        "sim_elapsed_us": round(world.finish_ps / 1e6, 3),
        "events_per_sim_s": round(eps, 1),
        "events_per_sim_s_per_core": round(eps / cores, 1),
        "events": stats["fired"],
        "packets": world.packets(),
        "cancelled": stats["cancelled"],
        "queue": stats["queue"],
    }


CELLS = {"transfer": transfer, "canary": canary, "tenant": tenant,
         "abort": abort, "fairness": fairness, "scale": scale}


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------

def grid(quick: bool) -> list[dict]:
    """Every world of the bench, once, in document order."""
    if quick:
        outages, crash_times = (200.0, 20_000.0), (500.0,)
        modes, rates, intensities = (None, "ash"), (0.1,), (0, 30_000)
        contended = ((8, 24_000),)
        worlds = ((1, 3, 4, 512, 2, None),)
    else:
        outages = (200.0, 1_000.0, 5_000.0, 20_000.0, 60_000.0)
        crash_times = (500.0, 1_500.0, 4_000.0, 10_000.0)
        modes, rates = (None, "upcall", "ash"), (0.05, 0.1, 0.2)
        intensities = (0, 2_000, 10_000, 30_000, 60_000)
        contended = ((16, 48_000), (24, 32_000))
        # (pairs, flows per pair, rounds, payload B, cores, rx batch): a
        # single-core ladder, a batched SMP world, and 100 nodes / 3000
        # flows swept across 1/2/4 cores, last
        worlds = ((2, 3, 8, 2048, 1, None), (8, 3, 10, 16384, 1, None),
                  (10, 3, 10, 16384, 1, None), (10, 12, 3, 1024, 2, 8),
                  *((50, 60, 2, 256, cores, None) for cores in (1, 2, 4)))
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

    for nflows, nbytes in contended:
        row("fairness", {"flows": nflows, "bytes_per_flow": nbytes},
            {"jain_floor": JAIN_FLOOR}, nflows=nflows, nbytes=nbytes, seed=42)
    for pairs, flows, rounds, size, cores, batch in worlds:
        row("scale", {"nodes": 2 * pairs, "flows": pairs * flows,
                      "cores": cores}, {"tombstones": 0},
            pairs=pairs, flows=flows, rounds=rounds, size=size, cores=cores,
            batch=batch, mem_mb=16)
    return rows


# ---------------------------------------------------------------------------
# what rows are checked against, and the gates over them
# ---------------------------------------------------------------------------

#: expectation -> (its summary gate, the message when that gate fails).
#: ``recovery_bound_us``, ``isolation_floor`` and ``jain_floor`` are
#: bounds; every other expectation is the value its observable (for
#: ``tombstones``, the fast engine's queue counter) must equal.
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
    "jain_floor": ("all_fairness_within_bounds",
                   f"fairness collapsed: Jain index {{min_jain_index}} < "
                   f"{JAIN_FLOOR}"),
    "tombstones": ("zero_calendar_tombstones",    # none outlive the run
                   "tombstones left in the calendar queue"),
}

GATES = [(lambda s: s["all_identical"],
          "substrates disagree under an identical schedule")] + [
    (lambda s, gate=gate: s[gate], message)
    for gate, message in EXPECTATIONS.values()
] + [
    (lambda s: s["sweep_linear_fraction"] >= LINEAR_FLOOR,
     f"multicore scaling collapsed: {{sweep_linear_fraction}}x of linear "
     f"< {LINEAR_FLOOR}"),
    (lambda s: s["largest_overflow_spills"] <= MAX_OVERFLOW_SPILLS,
     f"{{largest_overflow_spills}} overflow spills on the largest scale "
     f"world > {MAX_OVERFLOW_SPILLS}"),
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
        elif key == "jain_floor":
            out[key] = obs["jain_index"] >= want
        elif key == "tombstones":
            out[key] = obs["queue"][key] == want
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

    # the core sweep: the largest scale world (the last row) at each
    # core count it runs at, as a share of linear from the fewest
    scale = [r for r in rows if r["workload"] == "scale"]
    largest = scale[-1]
    sweep = {r["kwargs"]["cores"]: r["observables"]["events_per_sim_s"]
             for r in scale
             if dict(r["kwargs"], cores=0) == dict(largest["kwargs"], cores=0)}
    fewest = min(sweep)
    curve = {str(cores): {"events_per_sim_s": eps, "linear_fraction": round(
                 eps / (sweep[fewest] * cores / fewest), 3)}
             for cores, eps in sweep.items()}

    return {
        "goodput_retained_at_max_rate": {
            kind: round(goodput(find("transfer", scenario=kind,
                                     rate=max_rate, sack=True))
                        / goodput(baseline), 3)
            for kind in IMPAIRMENTS},
        "solo_goodput_mbps": round(goodput(solo), 4),
        "min_protected_isolation_ratio": min_ratio("protected"),
        "min_unprotected_isolation_ratio": min_ratio("unprotected"),
        "min_jain_index": min(r["observables"]["jain_index"] for r in rows
                              if r["workload"] == "fairness"),
        "core_sweep": curve,
        "sweep_linear_fraction": curve[str(max(sweep))]["linear_fraction"],
        "largest_overflow_spills":
            largest["observables"]["queue"]["overflow_spills"],
    }


def run_row(spec: dict) -> dict:
    """One row of the grid on both substrates: the spec, whether they
    agree (``identical``) and the fast run's ``observables``.  A scale
    cell's ``queue`` counts the substrate's own event queue (a calendar
    or a heap), not the model: the row records fast's, uncompared."""
    queues = {}

    def cell(substrate: str, **kwargs) -> dict:
        observables = CELLS[spec["workload"]](substrate=substrate, **kwargs)
        if "queue" in observables:
            queues[substrate] = {"queue": observables.pop("queue")}
        return observables

    observables, identical = on_both_substrates(cell, **spec["kwargs"])
    return dict(spec, identical=identical,
                observables={**observables, **queues.get("fast", {})})


def bench(quick: bool) -> dict:
    rows = [run_row(spec) for spec in grid(quick)]
    summary = derive(rows)
    for r in rows:
        r["met"] = met(r)
        obs = r["observables"]
        figures = [f"{key}={obs[key]:.6g}"
                   for key in ("goodput_mbps", "recovery_us", "jain_index",
                               "sim_elapsed_us", "events_per_sim_s")
                   if obs.get(key)]
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
