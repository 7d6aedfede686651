"""The benchmark's workloads: seeded inputs, world builders, verification.

Five workloads (see README.md for why each exists).  Four build one
simulated world -- many node pairs and flows on one engine -- out of the
program's public pieces (testbed builders, kernels, stacks, sockets, the
ASH system, the fault / tenancy / telemetry planes); ``paper_tables``
calls the paper-table drivers exactly as ``python -m repro.bench`` does.

Every workload is a **closed loop in simulated time**: each flow is one
client that issues its next operation when the previous one completed,
so client count = flow count.  ``generate_inputs`` turns ``--seed`` into
plain data (payload seeds and start staggers; sizes and, on
``planes_chaos``, the staggers and the fault-plane seed are constants of
the workload, see ``CHAOS_FAULT_SEED``); the builders receive only that
data.

Nothing here is timed: the callers in ``child.py`` put the clocks and the
profiler around ``build`` / ``World.run``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from calib import QUANTUM

WORKLOADS = ("pingpong_small", "bulk_stream", "scale_smp", "planes_chaos",
             "paper_tables")

CLIENT_IP = "10.0.0.1"
SERVER_IP = "10.0.0.2"
CLIENT_MAC = b"\x02\x00\x00\x00\x00\x01"
SERVER_MAC = b"\x02\x00\x00\x00\x00\x02"

#: start offsets are multiples of 173 cycles: coprime to the 200-cycle
#: charge quantum, so no two flows' quantum grids phase-lock
STAGGER_CYCLES = 173

#: simulated-time deadline; an operation still open here counts as failed
DEADLINE_S = 60.0

#: paper-table drivers ``paper_tables`` runs: (file under benchmarks/, fn,
#: cells carrying a paper reference value, part of the smoke subset).
#: Tables II and VI (7 s and 18 s a pass) are left to ``bulk_stream``.
PAPER_DRIVERS = (
    ("bench_table1_raw_latency.py", "run_table1", 3, True),
    ("bench_table3_copies.py", "run_table3", 3, True),
    ("bench_table4_ilp.py", "run_table4", 8, True),
    ("bench_table5_remote_increment.py", "run_table5", 8, False),
    ("bench_fig4_scheduling.py", "run_fig4", 0, False),
    ("bench_sec5d_sandbox_overhead.py", "run_sec5d", 2, True),
)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

#: full / smoke sizes.  Full sizes give an ``Engine.run`` of 1-2 s on the
#: 2-core box the benchmark was defined on, so that five fresh-process
#: repetitions fit the driver's per-run budget.
SIZES = {
    "pingpong_small": {"full": {"rounds": 150}, "smoke": {"rounds": 8}},
    "bulk_stream": {
        "full": {"tcp_bytes": 1536 * 1024, "udp_rounds": 120},
        "smoke": {"tcp_bytes": 64 * 1024, "udp_rounds": 4},
    },
    "scale_smp": {
        "full": {"pairs": 10, "flows": 30, "rounds": 4},
        "smoke": {"pairs": 2, "flows": 6, "rounds": 2},
    },
    "planes_chaos": {
        "full": {"tcp_bytes": 384 * 1024, "victim_kb": 96,
                 "flood_s": 0.04},
        "smoke": {"tcp_bytes": 8 * 1024, "victim_kb": 8,
                  "flood_s": 0.002},
    },
    "paper_tables": {"full": {}, "smoke": {}},
}

#: a paper-reference cell further than this from the paper's value is a
#: failed operation: the driver gates ``failed``, so a later change cannot
#: worsen the reproduction's accuracy without limit (worst cell today:
#: 22.5 %, the 40-byte sandbox ratio of sec. V-D)
PAPER_TOLERANCE_PCT = 30.0

#: events per calibration slice on ``paper_tables``: its events are mostly
#: idle-loop timers, five times cheaper than a packet-path event
PAPER_QUANTUM = 30_000


#: fault-plane seed and start staggers of ``planes_chaos``.  Its schedule
#: is part of the workload, not of ``--seed``.  Every write is synchronous,
#: so a flow's finish time is the sum of its 192 write latencies, and about
#: 20 of them (a Poisson count) stall 2-6 ms in retransmission.  With the
#: fault seed and the staggers drawn from ``--seed`` (staggers shift which
#: frames the schedule hits, so either one redraws everything), ten seeds
#: spread ``sim_elapsed_us`` by 0.054, ``sim_op_us_p99`` by 0.32 (it sits
#: between the one-timeout and the two-timeout class) and the events fired
#: -- hence ``run_s`` -- by 0.037.  A bound is per metric, not per workload,
#: so seeding this schedule would have cost the other four workloads their
#: 0.01 bounds.  The price: on ``planes_chaos`` a hold-out ``--seed``
#: changes payload bytes only; to hold out the schedule, run both commits
#: from a copy of this directory (beside it) with another value here.
CHAOS_FAULT_SEED = 1996
CHAOS_STAGGER = 17


def generate_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    """Plain-data description of one run: the only thing a builder sees.

    ``--seed`` draws every payload (contents, increment amounts) and every
    flow's start stagger.  Payload *sizes* are fixed per flow position:
    drawn per seed they moved the makespan by 20 % between seeds.  On
    ``planes_chaos`` the staggers and the fault-plane seed are fixed too
    (see ``CHAOS_FAULT_SEED``): there the seed moves no simulated timing.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"perf:{workload}:{seed}")
    inputs = dict(SIZES[workload]["smoke" if smoke else "full"])
    inputs["workload"] = workload
    inputs["seed"] = seed
    #: one draw per possible flow; builders index into these
    inputs["payload_seeds"] = [rng.getrandbits(32) for _ in range(1024)]
    inputs["staggers"] = [rng.randrange(1, 64) for _ in range(1024)]
    if workload == "planes_chaos":
        inputs["staggers"] = [CHAOS_STAGGER + i for i in range(1024)]
    inputs["fault_seed"] = CHAOS_FAULT_SEED
    return inputs


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Flow:
    """One closed-loop client and what it observed."""

    name: str
    attempted: int
    op_ps: list = field(default_factory=list)   #: per-op simulated latency
    bad: int = 0             #: completed ops whose output was wrong
    bytes_ok: int = 0        #: verified application payload bytes delivered
    finish_ps: Optional[int] = None
    note: str = ""
    #: running SHA-256 of everything the flow's receivers were handed
    out: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    @property
    def failed(self) -> int:
        """Wrong outputs plus ops that never completed."""
        return self.bad + (self.attempted - len(self.op_ps))


class World:
    """Many pairs and flows on one engine, with verification."""

    def __init__(self, inputs: dict, span=None):
        from repro.sim.engine import Engine

        self.inputs = inputs
        #: ``span(name)`` context manager for the traced run's fine
        #: set-up spans; a no-op when tracing is off
        self.span = span or (lambda name: contextlib.nullcontext())
        self.engine = Engine()
        self.testbeds: list = []
        self.flows: list[Flow] = []
        self.plane = None          #: FaultPlane, when the workload has one
        self.managers: list = []   #: TenantManagers
        self.conns: list = []      #: every TcpConnection (model counts)
        self.checks: list[Callable[[], Optional[str]]] = []
        #: most events pending in the engine's queue, sampled when the run
        #: starts and at every slice boundary
        self.peak_pending = 0
        self._stack = contextlib.ExitStack()

    # -- construction helpers ------------------------------------------------
    def pair(self, prefix: str, eth: bool = False, **kw):
        from repro.bench.testbed import make_an2_pair, make_eth_pair

        make = make_eth_pair if eth else make_an2_pair
        with self.span("setup.nodes"):
            tb = make(engine=self.engine, name_prefix=prefix, **kw)
        self.testbeds.append(tb)
        return tb

    def install(self, add: Callable, *args, **kw) -> "Flow":
        """Add one flow (endpoints, stacks, sockets, handler downloads)."""
        with self.span("setup.installs"):
            return add(self, *args, **kw)

    def flow(self, name: str, attempted: int) -> Flow:
        fl = Flow(name, attempted)
        self.flows.append(fl)
        return fl

    def stagger_ps(self, k: int) -> int:
        from repro.sim.units import CYCLE_PS

        return self.inputs["staggers"][k] * STAGGER_CYCLES * CYCLE_PS

    def payload(self, k: int, n: int) -> bytes:
        return random.Random(self.inputs["payload_seeds"][k]).randbytes(n)

    def nodes(self):
        for tb in self.testbeds:
            yield tb.client
            yield tb.server

    # -- run -----------------------------------------------------------------
    def run(self, tick: Callable[[int], None] = lambda fired: None) -> None:
        """Run every flow to completion (or the simulated deadline).

        The run is cut into slices of simulated time and
        ``tick(events_fired)`` is called after each, so the caller can
        interleave calibration doses.  The slice length adapts until a
        slice fires about half of ``QUANTUM`` events; it adapts on event
        counts alone, so the cuts fall at the same simulated instants in
        every repetition.  Slicing does not change what is simulated.
        """
        from repro.sim.units import seconds, us

        engine, deadline = self.engine, seconds(DEADLINE_S)
        slice_ps = us(100.0)
        stats = engine.stats()
        while True:
            self.peak_pending = max(self.peak_pending, stats["pending"])
            if engine.idle or engine.now >= deadline:
                return
            engine.run(until=min(deadline, engine.now + slice_ps),
                       raise_crashes=False)
            before, stats = stats["fired"], engine.stats()
            fired = stats["fired"] - before
            tick(fired)
            if fired < QUANTUM // 4:
                slice_ps *= 2
            elif fired > QUANTUM:
                slice_ps = max(us(10.0), slice_ps // 2)

    def close(self) -> None:
        self._stack.close()

    # -- results -------------------------------------------------------------
    def verify(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, notes): per-op failures plus world-wide
        invariants, each violated invariant counted as one failure."""
        # world-wide checks first: a bad stream digest marks its writes
        check_notes = [msg for check in self.checks if (msg := check())]
        attempted = sum(fl.attempted for fl in self.flows)
        failed = sum(fl.failed for fl in self.flows) + len(check_notes)
        notes = [f"{fl.name}: {fl.failed}/{fl.attempted} failed {fl.note}"
                 for fl in self.flows if fl.failed] + check_notes
        for proc, exc in self.engine.crashes:
            notes.append(f"process {proc.name!r} died: {exc!r}")
            failed += 1
        violations = sum(n.kernel.degradation_order_violations
                         for n in self.nodes())
        violations += sum(m.order_violations for m in self.managers)
        if violations:
            notes.append(f"degradation_order_violations={violations}")
            failed += 1
        leaked = sum(n.pktpool.in_flight for n in self.nodes()
                     if n.pktpool is not None)
        if leaked:
            notes.append(f"pktbuf in_flight={leaked} at drain")
            failed += 1
        return attempted, min(failed, attempted), notes

    def ops_ps(self) -> list[int]:
        return [t for fl in self.flows for t in fl.op_ps]

    def finish_ps(self) -> int:
        return max((fl.finish_ps or 0) for fl in self.flows)

    def packets(self) -> int:
        return sum(nic.rx_frames for n in self.nodes()
                   for nic in n.nics.values())

    def observables(self) -> dict:
        """Every substrate-invariant simulated observable.  The engine's
        own clock and counters are left out: legacy tombstone pops move
        them without moving the model."""
        return {
            "flows": [[fl.name, fl.op_ps, fl.finish_ps, fl.bad, fl.bytes_ok,
                       fl.out.hexdigest()] for fl in self.flows],
            "nodes": [
                [n.name, n.dcache.hits, n.dcache.misses,
                 n.kernel.rx_interrupts,
                 sorted((nic.name, nic.rx_frames, nic.tx_frames,
                         nic.rx_dropped) for nic in n.nics.values())]
                for n in self.nodes()
            ],
            "tcp": [[c.name, c.tcb.retransmits, c.tcb.fast_recoveries,
                     c.congestion_digest()] for c in self.conns],
            "ledger": self.plane.ledger() if self.plane else {},
        }

    def counts(self) -> dict:
        """Exact per-layer model counts, from public stats only."""
        from repro.vcode import jit

        stats = self.engine.stats()
        kstats = [n.kernel.stats() for n in self.nodes()]
        hits = sum(n.dcache.hits for n in self.nodes())
        misses = sum(n.dcache.misses for n in self.nodes())
        handlers = [h for k in kstats for h in k["ash"]["handlers"]]
        clipped = 0
        for m in self.managers:
            for t in m.stats()["tenants"].values():
                clipped += sum(t["counters"].get("dropped", {}).values())
        return {
            "sim.engine.events_fired": stats["fired"],
            "sim.engine.cancelled": stats["cancelled"],
            "sim.queues.overflow_spills":
                stats["queue"].get("overflow_spills", 0),
            "sim.queues.peak_pending": self.peak_pending,
            "hw.nic.rx_frames": self.packets(),
            "hw.nic.rx_dropped": sum(
                nic["rx_dropped"] for k in kstats
                for nic in k["nics"].values()),
            "hw.nic.pktbuf_peak": sum(
                n.pktpool.stats()["created"] for n in self.nodes()
                if n.pktpool is not None),
            "hw.cache.miss_ratio":
                misses / (hits + misses) if hits + misses else 0.0,
            "kernel.kernel.rx_interrupts":
                sum(k["rx_interrupts"] for k in kstats),
            "kernel.kernel.ash_abort_fallbacks":
                sum(k["ash_abort_fallbacks"] for k in kstats),
            "kernel.scheduler.context_switches":
                sum(k["context_switches"] for k in kstats),
            "ash.system.invocations":
                sum(h["invocations"] for h in handlers),
            "vcode.jit.translations": jit.stats.misses,
            "net.tcp.retransmits":
                sum(c.tcb.retransmits for c in self.conns),
            "net.tcp.fast_recoveries":
                sum(c.tcb.fast_recoveries for c in self.conns),
            "sim.faults.injected": self.plane.total() if self.plane else 0,
            "ash.tenancy.clipped_frames": clipped,
        }


def digest(observables: dict) -> str:
    blob = json.dumps(observables, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# flow builders
# ---------------------------------------------------------------------------

def _vcis(j: int) -> tuple[int, int]:
    """(client->server, server->client) circuits of a pair's flow j."""
    return 2 * j + 1, 2 * j + 2


def _an2_stacks(tb, j: int):
    from repro.net.stack import NetStack

    c2s, s2c = _vcis(j)
    cstack = NetStack(tb.client_kernel, tb.client_nic, CLIENT_IP,
                      an2_peers={SERVER_IP: (c2s, s2c)})
    sstack = NetStack(tb.server_kernel, tb.server_nic, SERVER_IP,
                      an2_peers={CLIENT_IP: (s2c, c2s)})
    return cstack, sstack


def _eth_stacks(tb):
    from repro.net.stack import NetStack

    return (NetStack(tb.client_kernel, tb.client_nic, CLIENT_IP,
                     mac=CLIENT_MAC),
            NetStack(tb.server_kernel, tb.server_nic, SERVER_IP,
                     mac=SERVER_MAC))


def add_rinc(world: World, tb, j: int, k: int, rounds: int,
             tenant=None) -> Flow:
    """Sandboxed remote-increment ASH on a raw circuit (Table V's
    workload); verifies every reply and the final counter."""
    from repro.ash.examples import (PARAM_COUNTER, PARAM_REPLY_VCI,
                                    PARAM_SCRATCH, build_remote_increment)
    from repro.hw.link import Frame

    fl = world.flow(f"{tb.client.name}.f{j}.rinc", rounds)
    sk, ck = tb.server_kernel, tb.client_kernel
    c2s, s2c = _vcis(j)
    srv_ep = sk.create_endpoint_an2(tb.server_nic, c2s, name=f"f{j}rinc-s")
    cli_ep = ck.create_endpoint_an2(tb.client_nic, s2c, name=f"f{j}rinc-c")
    mem, cmem = tb.server.memory, tb.client.memory
    state = mem.alloc(f"f{j}.incr_state", 64)
    mem.store_u32(state.base + 32 + PARAM_COUNTER, state.base)
    mem.store_u32(state.base + 32 + PARAM_REPLY_VCI, s2c)
    mem.store_u32(state.base + 32 + PARAM_SCRATCH, state.base + 16)
    ash_id = sk.ash_system.download(
        build_remote_increment(), allowed_regions=[(state.base, 64)],
        user_word=state.base + 32)
    sk.ash_system.bind(srv_ep, ash_id)
    rng = random.Random(world.inputs["payload_seeds"][k])
    amounts = [rng.randrange(1, 1 << 16) for _ in range(rounds)]
    stagger = world.stagger_ps(k)

    def client(proc):
        yield proc.engine.sleep(stagger)
        total = 0
        for amount in amounts:
            t0 = proc.engine.now
            yield from ck.sys_net_send(
                proc, tb.client_nic,
                Frame(amount.to_bytes(4, "little"), vci=c2s))
            desc = yield from ck.sys_recv_poll(proc, cli_ep)
            value = cmem.load_u32(desc.addr)
            yield from ck.sys_replenish(proc, cli_ep, desc)
            fl.op_ps.append(proc.engine.now - t0)
            fl.out.update(value.to_bytes(4, "little"))
            total = (total + amount) & 0xFFFFFFFF
            if value == total:
                fl.bytes_ok += 8
            else:
                fl.bad += 1
        fl.finish_ps = proc.engine.now

    cli_ep.owner = ck.spawn_process(f"f{j}rinc-client", client)

    def check():
        got = mem.load_u32(state.base)
        if got != sum(amounts) & 0xFFFFFFFF:
            return f"{fl.name}: counter {got} != increments sent"

    world.checks.append(check)
    return fl


def add_udp_echo(world: World, tb, j: int, k: int, rounds: int, size: int,
                 eth: bool = False) -> Flow:
    """UDP ping-pong through the library; the echoed payload must match."""
    from repro.net.udp import UdpSocket

    fl = world.flow(f"{tb.client.name}.f{j}.udp", rounds)
    port = 7001 + j
    if eth:
        cstack, sstack = _eth_stacks(tb)
        csock = UdpSocket(cstack, port, name=f"f{j}udpc")
        ssock = UdpSocket(sstack, port, name=f"f{j}udps")
    else:
        cstack, sstack = _an2_stacks(tb, j)
        c2s, s2c = _vcis(j)
        csock = UdpSocket(cstack, port, rx_vci=s2c, name=f"f{j}udpc")
        ssock = UdpSocket(sstack, port, rx_vci=c2s, name=f"f{j}udps")
    data = world.payload(k, rounds * size)
    server_ip = sstack.ip
    stagger = world.stagger_ps(k)

    def server(proc):
        for _ in range(rounds):
            dg = yield from ssock.recvfrom(proc)
            yield from ssock.sendto(proc, dg.payload, dg.src_ip, dg.src_port)

    def client(proc):
        yield proc.engine.sleep(stagger)
        for r in range(rounds):
            sent = data[r * size:(r + 1) * size]
            t0 = proc.engine.now
            yield from csock.sendto(proc, sent, server_ip, port)
            dg = yield from csock.recvfrom(proc)
            fl.op_ps.append(proc.engine.now - t0)
            fl.out.update(dg.payload)
            if bytes(dg.payload) == sent:
                fl.bytes_ok += 2 * size
            else:
                fl.bad += 1
        fl.finish_ps = proc.engine.now

    tb.server_kernel.spawn_process(f"f{j}udp-server", server)
    tb.client_kernel.spawn_process(f"f{j}udp-client", client)
    return fl


def _tcp_pair(world: World, tb, j: int, **kw):
    from repro.net.tcp import TcpConnection

    cstack, sstack = _an2_stacks(tb, j)
    c2s, s2c = _vcis(j)
    conn_c = TcpConnection(cstack, 5000 + j, sstack.ip, 80 + j, rx_vci=s2c,
                           iss=1000, name=f"f{j}tcpc", **kw)
    conn_s = TcpConnection(sstack, 80 + j, cstack.ip, 5000 + j, rx_vci=c2s,
                           iss=7000, name=f"f{j}tcps", **kw)
    world.conns += [conn_c, conn_s]
    return conn_c, conn_s


def add_tcp_echo(world: World, tb, j: int, k: int, rounds: int, size: int,
                 fastpath: bool) -> Flow:
    """TCP ping-pong, optionally with the sandboxed ASH fast path."""
    fl = world.flow(f"{tb.client.name}.f{j}.tcp", rounds)
    conn_c, conn_s = _tcp_pair(world, tb, j)
    data = world.payload(k, rounds * size)
    stagger = world.stagger_ps(k)

    def server(proc):
        yield from conn_s.accept(proc)
        if fastpath:
            conn_s.install_fastpath(kind="ash", sandbox=True)
        for _ in range(rounds):
            got = yield from conn_s.read(proc, size)
            yield from conn_s.write(proc, got)

    def client(proc):
        yield proc.engine.sleep(stagger)
        yield from conn_c.connect(proc)
        if fastpath:
            conn_c.install_fastpath(kind="ash", sandbox=True)
        for r in range(rounds):
            sent = data[r * size:(r + 1) * size]
            t0 = proc.engine.now
            yield from conn_c.write(proc, sent)
            got = yield from conn_c.read(proc, size)
            fl.op_ps.append(proc.engine.now - t0)
            fl.out.update(got)
            if got == sent:
                fl.bytes_ok += 2 * size
            else:
                fl.bad += 1
        fl.finish_ps = proc.engine.now

    tb.server_kernel.spawn_process(f"f{j}tcp-server", server)
    tb.client_kernel.spawn_process(f"f{j}tcp-client", client)
    return fl


def add_tcp_stream(world: World, tb, j: int, k: int, total: int, chunk: int,
                   fastpath: bool, linger_us: float = 0.0, **kw) -> Flow:
    """One-way TCP bulk transfer in ``chunk``-byte synchronous writes;
    one op = one write, call to return.  The receiver's SHA-256 must
    equal the sender's.  On a lossy link both ends linger after the last
    byte (``linger_us``) so a lost final ack is answered and late
    duplicates are consumed instead of stranding the peer."""
    nwrites = -(-total // chunk)
    fl = world.flow(f"{tb.client.name}.f{j}.stream", nwrites)
    conn_c, conn_s = _tcp_pair(world, tb, j, **kw)
    data = world.payload(k, total)
    want = hashlib.sha256(data).hexdigest()
    rx_hash = fl.out
    stagger = world.stagger_ps(k)
    state = {"received": 0, "done": False}

    def server(proc):
        yield from conn_s.accept(proc)
        if fastpath:
            conn_s.install_fastpath(kind="ash", sandbox=True)
        while state["received"] < total:
            got = yield from conn_s.read(
                proc, min(total - state["received"], 32768))
            if not got:
                break
            rx_hash.update(got)
            state["received"] += len(got)
        yield from conn_s.write(proc, b"done")
        if linger_us:
            yield from conn_s.linger(proc, duration_us=linger_us)

    def client(proc):
        yield proc.engine.sleep(stagger)
        yield from conn_c.connect(proc)
        if fastpath:
            conn_c.install_fastpath(kind="ash", sandbox=True)
        for off in range(0, total, chunk):
            t0 = proc.engine.now
            yield from conn_c.write(proc, data[off:off + chunk])
            fl.op_ps.append(proc.engine.now - t0)
        reply = yield from conn_c.read(proc, 4)
        state["done"] = reply == b"done"
        fl.finish_ps = proc.engine.now
        if linger_us:
            yield from conn_c.linger(proc, duration_us=linger_us)

    tb.server_kernel.spawn_process(f"f{j}stream-server", server)
    tb.client_kernel.spawn_process(f"f{j}stream-client", client)

    def check():
        if state["done"] and rx_hash.hexdigest() == want:
            fl.bytes_ok = total
            return None
        # a corrupt or short stream fails every write that fed it
        fl.bad = len(fl.op_ps)
        fl.note = f"(sha mismatch or short: {state['received']}/{total} B)"
        return None

    world.checks.append(check)
    return fl


def add_udp_train(world: World, tb, j: int, k: int, rounds: int,
                  train: int = 6, mss: int = 3072) -> Flow:
    """Table II's UDP throughput shape: ``train`` MSS-sized datagrams,
    then a small ack back; one op = one train, first send to ack.  Each
    train is verified by the SHA-256 the ack carries."""
    from repro.net.udp import UdpSocket

    fl = world.flow(f"{tb.client.name}.f{j}.train", rounds)
    cstack, sstack = _an2_stacks(tb, j)
    c2s, s2c = _vcis(j)
    port = 7001 + j
    csock = UdpSocket(cstack, port, rx_vci=s2c, name=f"f{j}trainc")
    ssock = UdpSocket(sstack, port, rx_vci=c2s, name=f"f{j}trains")
    data = world.payload(k, train * mss)
    want = hashlib.sha256(data).digest()[:8]
    server_ip, client_ip = sstack.ip, cstack.ip
    stagger = world.stagger_ps(k)

    def server(proc):
        for _ in range(rounds):
            h = hashlib.sha256()
            for _ in range(train):
                dg = yield from ssock.recvfrom(proc)
                h.update(dg.payload)
            yield from ssock.sendto(proc, h.digest()[:8], client_ip, port)

    def client(proc):
        yield proc.engine.sleep(stagger)
        for _ in range(rounds):
            t0 = proc.engine.now
            for i in range(train):
                yield from csock.sendto(proc, data[i * mss:(i + 1) * mss],
                                        server_ip, port)
            dg = yield from csock.recvfrom(proc)
            fl.op_ps.append(proc.engine.now - t0)
            fl.out.update(dg.payload)
            if bytes(dg.payload) == want:
                fl.bytes_ok += train * mss
            else:
                fl.bad += 1
        fl.finish_ps = proc.engine.now

    tb.server_kernel.spawn_process(f"f{j}train-server", server)
    tb.client_kernel.spawn_process(f"f{j}train-client", client)
    return fl


# ---------------------------------------------------------------------------
# the four world workloads
# ---------------------------------------------------------------------------

def build_pingpong_small(inputs: dict, span=None) -> World:
    world = World(inputs, span)
    rounds = inputs["rounds"]
    k = 0
    for i, size in enumerate((4, 16, 64)):
        tb = world.pair(f"p{i}.")
        world.install(add_rinc, tb, 0, k, rounds)
        world.install(add_tcp_echo, tb, 1, k + 1, rounds, size,
                      fastpath=True)
        world.install(add_udp_echo, tb, 2, k + 2, rounds, size)
        k += 3
    eth = world.pair("e0.", eth=True)
    world.install(add_udp_echo, eth, 0, k, rounds, 16, eth=True)
    return world


def build_bulk_stream(inputs: dict, span=None) -> World:
    world = World(inputs, span)
    tb_a = world.pair("a.")
    world.install(add_tcp_stream, tb_a, 0, 0, inputs["tcp_bytes"], 8192,
                  fastpath=True)
    tb_b = world.pair("b.")
    world.install(add_udp_train, tb_b, 0, 1, inputs["udp_rounds"])
    return world


def build_scale_smp(inputs: dict, span=None) -> World:
    world = World(inputs, span)
    flows, rounds = inputs["flows"], inputs["rounds"]
    for i in range(inputs["pairs"]):
        tb = world.pair(f"p{i}.", ncores=2, rx_batch=8)
        for j in range(flows):
            k = i * flows + j
            if k % 3 == 0:
                world.install(add_udp_echo, tb, j, k, rounds, 256)
            elif k % 3 == 1:
                world.install(add_tcp_echo, tb, j, k, rounds, 256,
                              fastpath=False)
            else:
                world.install(add_rinc, tb, j, k, rounds)
    return world


def build_planes_chaos(inputs: dict, span=None) -> World:
    """Every plane on: telemetry session (spans, SLO rules, flight
    recorder), seeded link chaos + one scripted crash/reboot under four
    SACK TCP flows, and the protected noisy-neighbour tenancy world."""
    from repro import telemetry
    from repro.ash.tenancy import TenantManager
    from repro.sim.faults import FaultPlane
    from repro.telemetry import SloRule

    world = World(inputs, span)
    world._stack.enter_context(telemetry.session())
    total = inputs["tcp_bytes"]
    k = 0
    for i in range(2):
        tb = world.pair(f"c{i}.", ncores=2)
        if world.plane is None:
            world.plane = FaultPlane(world.engine, seed=inputs["fault_seed"],
                                     telemetry=tb.client.telemetry)
        for node in (tb.client, tb.server):
            node.telemetry.configure_flight(256)
            node.telemetry.slo.add_rule(
                SloRule("write_latency", max_latency_us=20_000.0))
            node.telemetry.slo.add_rule(
                SloRule("retransmit_budget", max_retransmits=8))
        world.plane.impair_link(tb.link, skip_first=6, drop=0.03,
                                reorder=0.03, duplicate=0.02, corrupt=0.02)
        for j in range(2):
            world.install(add_tcp_stream, tb, j, k, total, 2048,
                          fastpath=False, linger_us=200_000.0, sack=True,
                          rto_us=20_000.0)
            k += 1
    # one scripted crash + reboot of pair 0's server, mid-transfer
    world.plane.crash_node(world.testbeds[0].server_kernel,
                           at_us=3_000.0, outage_us=2_000.0)

    # pair 3: the protected noisy-neighbour tenancy world
    tb = world.pair("t.", ncores=2)
    sk = tb.server_kernel
    manager = TenantManager(sk)
    world.managers.append(manager)
    manager.create("alice", rings=8, buffers=64,
                   handler_cycles=10_000_000,
                   bytes_per_round=1_000_000_000,
                   burst_bytes=1_000_000_000)
    manager.create("mallory", rings=4, buffers=4, handler_cycles=100_000,
                   bytes_per_round=4096, burst_bytes=4096)
    world.install(add_tcp_stream, tb, 0, k, inputs["victim_kb"] * 1024,
                  4096, fastpath=False)
    manager.adopt_endpoint("alice", world.conns[-1].endpoint)
    aggressor_vci = 30
    mal_ep = sk.create_endpoint_an2(tb.server_nic, aggressor_vci,
                                    tenant="mallory")

    def mallory_app(proc):
        while True:
            desc = yield from sk.sys_recv_block(proc, mal_ep)
            yield from proc.compute_us(2.0)
            yield from sk.sys_replenish(proc, mal_ep, desc)

    mal_ep.owner = sk.spawn_process("mallory-app", mallory_app)
    fps = 40_000
    world.plane.flood_tenant(
        tb.server_nic, aggressor_vci, frame_bytes=1024,
        count=max(1, int(fps * inputs["flood_s"])),
        start_us=50.0, gap_us=1e6 / fps)
    return world


BUILDERS = {
    "pingpong_small": build_pingpong_small,
    "bulk_stream": build_bulk_stream,
    "scale_smp": build_scale_smp,
    "planes_chaos": build_planes_chaos,
}


# ---------------------------------------------------------------------------
# paper_tables
# ---------------------------------------------------------------------------

def load_paper_drivers(bench_dir: str, smoke: bool = False):
    """Import the table drivers the way ``python -m repro.bench`` does;
    returns (runner functions, paper-reference cells they must yield)."""
    import importlib.util
    import os

    runners, cells = [], 0
    for filename, fn_name, ncells, in_smoke in PAPER_DRIVERS:
        if smoke and not in_smoke:
            continue
        spec = importlib.util.spec_from_file_location(
            f"bench_{fn_name}", os.path.join(bench_dir, filename))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        runners.append(getattr(module, fn_name))
        cells += ncells
    return runners, cells


def reported(tables: list, unit: str) -> list[float]:
    """Every figure the drivers report in tables of ``unit``."""
    return [float(row[col]) for table in tables if table.unit == unit
            for row in table.rows for col in row if col != "label"]


def paper_cells(tables: list) -> list[tuple[str, float, float]]:
    """(cell id, measured, paper) for every cell with a paper reference."""
    cells = []
    for table in tables:
        for row in table.rows:
            ref = table.paper.get(row["label"], {})
            for col, paper in ref.items():
                if paper is not None and col in row:
                    cells.append((f"{table.name}/{row['label']}/{col}",
                                  float(row[col]), float(paper)))
    return cells
