"""Measurement drivers for the paper's experiments.

Each function sets up one workload on a testbed, runs it to completion
and returns the measured quantities.  The benchmarks under
``benchmarks/`` are thin wrappers around these drivers; keeping the
logic here makes the same workloads reusable from tests and examples.

Methodology follows Section IV-B: multiple iterations divided by the
count, with warm-up iterations discarded (the simulator is
deterministic, so the paper's ten-sample confidence intervals collapse
to exact numbers here).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..ash.examples import (
    PARAM_COUNTER,
    PARAM_REPLY_VCI,
    PARAM_SCRATCH,
    build_remote_increment,
)
from ..hw.calibration import Calibration, DEFAULT
from ..hw.link import Frame
from ..kernel.upcall import UpcallHandler
from ..net.headers import ip_aton
from ..net.socket_api import make_stacks, tcp_pair
from ..net.udp import UdpSocket
from ..sim.engine import Engine
from ..sim.units import to_us, us
from .testbed import (
    CLIENT_TO_SERVER_VCI,
    SERVER_TO_CLIENT_VCI,
    Testbed,
    make_an2_pair,
    make_eth_pair,
)

__all__ = [
    "raw_pingpong_kernel",
    "raw_pingpong_user",
    "raw_stream_throughput",
    "udp_pingpong",
    "udp_train_throughput",
    "tcp_pingpong",
    "tcp_stream_throughput",
    "tcp_bulk",
    "chaos_transfer",
    "recovery_us",
    "seeded_payload",
    "am_flow",
    "remote_increment",
    "RemoteIncrementResult",
    "canary_rollout",
    "tenant_world",
    "tenant_noisy_neighbor",
    "TENANT_SCENARIOS",
]

SERVER_IP = "10.0.0.2"
CLIENT_IP = "10.0.0.1"


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs)


# ---------------------------------------------------------------------------
# raw interface (Table I, Fig 3)
# ---------------------------------------------------------------------------

def raw_pingpong_kernel(iters: int = 20, warmup: int = 3) -> float:
    """In-kernel AN2 round trip of a 4-byte message: both echo paths are
    hand-coded kernel handlers (Table I row 1).  Returns µs per round
    trip."""
    tb = make_an2_pair()
    sk, ck = tb.server_kernel, tb.client_kernel
    srv_ep = sk.create_endpoint_an2(tb.server_nic, CLIENT_TO_SERVER_VCI)
    cli_ep = ck.create_endpoint_an2(tb.client_nic, SERVER_TO_CLIENT_VCI)
    stamps: list[int] = []
    total = iters + warmup

    def server_echo(kernel, ep, desc):
        payload = kernel.node.memory.read(desc.addr, desc.length)
        yield from kernel.kernel_send(
            desc.nic, Frame(payload, vci=SERVER_TO_CLIENT_VCI)
        )
        return True

    def client_handler(kernel, ep, desc):
        stamps.append(kernel.engine.now)
        if len(stamps) < total:
            payload = kernel.node.memory.read(desc.addr, desc.length)
            yield from kernel.kernel_send(
                desc.nic, Frame(payload, vci=CLIENT_TO_SERVER_VCI)
            )
        return True

    srv_ep.kernel_handler = server_echo
    cli_ep.kernel_handler = client_handler

    def kickoff():
        yield from ck.kernel_send(
            tb.client_nic, Frame(bytes(4), vci=CLIENT_TO_SERVER_VCI)
        )

    stamps.append(0)
    tb.engine.spawn(kickoff())
    tb.run()
    deltas = [to_us(b - a) for a, b in zip(stamps, stamps[1:])][warmup:]
    return _mean(deltas)


def raw_pingpong_user(eth: bool = False) -> float:
    """User-level raw round trip of a 4-byte message: polling processes
    on both ends using the full system-call interface (Table I rows
    2-3), 20 measured after 3 warm-up."""
    tb = make_eth_pair() if eth else make_an2_pair()
    sk, ck = tb.server_kernel, tb.client_kernel
    if eth:
        from ..kernel.dpf import Predicate

        # demux raw frames by first payload byte
        srv_ep = sk.create_endpoint_eth(
            tb.server_nic, [Predicate(offset=0, size=1, value=0x51)]
        )
        cli_ep = ck.create_endpoint_eth(
            tb.client_nic, [Predicate(offset=0, size=1, value=0x52)]
        )
        to_server = b"\x51" + bytes(3)
        to_client = b"\x52" + bytes(3)
        srv_frame = lambda: Frame(to_server)
        cli_frame = lambda: Frame(to_client)
    else:
        srv_ep = sk.create_endpoint_an2(tb.server_nic, CLIENT_TO_SERVER_VCI)
        cli_ep = ck.create_endpoint_an2(tb.client_nic, SERVER_TO_CLIENT_VCI)
        srv_frame = lambda: Frame(bytes(4), vci=CLIENT_TO_SERVER_VCI)
        cli_frame = lambda: Frame(bytes(4), vci=SERVER_TO_CLIENT_VCI)
    rts: list[float] = []
    warmup = 3
    total = 20 + warmup

    def server(proc):
        for _ in range(total):
            desc = yield from sk.sys_recv_poll(proc, srv_ep)
            yield from sk.sys_replenish(proc, srv_ep, desc)
            yield from sk.sys_net_send(proc, tb.server_nic, cli_frame())

    def client(proc):
        for _ in range(total):
            t0 = proc.engine.now
            yield from ck.sys_net_send(proc, tb.client_nic, srv_frame())
            desc = yield from ck.sys_recv_poll(proc, cli_ep)
            yield from ck.sys_replenish(proc, cli_ep, desc)
            rts.append(to_us(proc.engine.now - t0))

    srv_ep.owner = sk.spawn_process("server", server)
    cli_ep.owner = ck.spawn_process("client", client)
    tb.run()
    return _mean(rts[warmup:])


def raw_stream_throughput(size: int = 4096, count: int = 60) -> float:
    """Fig 3: user-level send of a packet train; returns MB/s."""
    tb = make_an2_pair()
    sk, ck = tb.server_kernel, tb.client_kernel
    srv_ep = sk.create_endpoint_an2(
        tb.server_nic, CLIENT_TO_SERVER_VCI, nbufs=16
    )
    done = {"at": None, "received": 0}

    def sink(kernel, ep, desc):
        done["received"] += 1
        if done["received"] == count:
            done["at"] = kernel.engine.now
        return True
        yield  # pragma: no cover

    srv_ep.kernel_handler = sink
    start = {"at": None}

    def client(proc):
        start["at"] = proc.engine.now
        for _ in range(count):
            yield from ck.sys_net_send(
                proc, tb.client_nic,
                Frame(bytes(size), vci=CLIENT_TO_SERVER_VCI),
            )

    ck.spawn_process("client", client)
    tb.run()
    assert done["at"] is not None, "train not fully received"
    seconds = to_us(done["at"] - start["at"]) / 1e6
    return size * count / seconds / 1e6


# ---------------------------------------------------------------------------
# UDP (Table II)
# ---------------------------------------------------------------------------

def _udp_pair(tb: Testbed, checksum: bool, in_place: bool):
    cstack, sstack = make_stacks(tb, CLIENT_IP, SERVER_IP)
    an2 = cstack.is_an2
    csock = UdpSocket(cstack, 7001, rx_vci=2 if an2 else None,
                      checksum=checksum, in_place=in_place)
    ssock = UdpSocket(sstack, 7000, rx_vci=1 if an2 else None,
                      checksum=checksum, in_place=in_place)
    return csock, ssock


def udp_pingpong(
    cal: Calibration = DEFAULT,
    checksum: bool = True,
    in_place: bool = False,
    eth: bool = False,
    iters: int = 15,
    warmup: int = 3,
) -> float:
    """Table II UDP latency: 4-byte ping-pong; returns µs/RT."""
    tb = make_eth_pair(cal) if eth else make_an2_pair(cal)
    csock, ssock = _udp_pair(tb, checksum, in_place)
    rts: list[float] = []
    total = iters + warmup
    server_ip = ip_aton(SERVER_IP)

    def server(proc):
        for _ in range(total):
            dg = yield from ssock.recvfrom(proc)
            yield from ssock.sendto(proc, dg.payload, dg.src_ip, dg.src_port)

    def client(proc):
        for _ in range(total):
            t0 = proc.engine.now
            yield from csock.sendto(proc, bytes(4), server_ip, 7000)
            yield from csock.recvfrom(proc)
            rts.append(to_us(proc.engine.now - t0))

    tb.server_kernel.spawn_process("server", server)
    tb.client_kernel.spawn_process("client", client)
    tb.run()
    return _mean(rts[warmup:])


def udp_train_throughput(
    checksum: bool = True,
    in_place: bool = False,
    eth: bool = False,
) -> float:
    """Table II UDP throughput: 12 trains of 6 MSS, small ack back;
    MB/s."""
    tb = make_eth_pair() if eth else make_an2_pair()
    train, rounds = 6, 12
    csock, ssock = _udp_pair(tb, checksum, in_place)
    mss = 1500 - 28 if eth else 3072
    server_ip = ip_aton(SERVER_IP)
    client_ip = ip_aton(CLIENT_IP)
    span = {}

    def server(proc):
        for _ in range(rounds):
            for _ in range(train):
                yield from ssock.recvfrom(proc)
            yield from ssock.sendto(proc, b"ack!", client_ip, 7001)

    def client(proc):
        span["start"] = proc.engine.now
        for _ in range(rounds):
            for _ in range(train):
                yield from csock.sendto(proc, bytes(mss), server_ip, 7000)
            yield from csock.recvfrom(proc)
        span["end"] = proc.engine.now

    tb.server_kernel.spawn_process("server", server)
    tb.client_kernel.spawn_process("client", client)
    tb.run()
    seconds = to_us(span["end"] - span["start"]) / 1e6
    return mss * train * rounds / seconds / 1e6


# ---------------------------------------------------------------------------
# TCP (Tables II and VI)
# ---------------------------------------------------------------------------

@dataclass
class TcpConfig:
    checksum: bool = True
    in_place: bool = False
    mss: Optional[int] = None
    handler: Optional[str] = None     #: None | "ash" | "ash-unsafe" | "upcall"
    interrupt_driven: bool = False
    window: int = 8192
    eth: bool = False                 #: run over the Ethernet (library path)
    cwnd_init: Optional[int] = None   #: initial congestion window, bytes
    ssthresh_init: Optional[int] = None
    sack: bool = True                 #: negotiate SACK (off = go-back-N)

    def apply_handler(self, conn) -> None:
        if self.handler is None:
            return
        if self.handler == "ash":
            conn.install_fastpath(kind="ash", sandbox=True)
        elif self.handler == "ash-unsafe":
            conn.install_fastpath(kind="ash", sandbox=False)
        elif self.handler == "upcall":
            conn.install_fastpath(kind="upcall")
        else:
            raise ValueError(f"unknown handler mode {self.handler!r}")


def _tcp_session(config: TcpConfig, client_body, server_body):
    opts = {"boost_on_packet": True} if config.interrupt_driven else {}
    kwargs = dict(
        checksum=config.checksum,
        in_place=config.in_place,
        window=config.window,
        interrupt_driven=config.interrupt_driven,
        sack=config.sack,
    )
    if config.mss is not None:
        kwargs["mss"] = config.mss
    if config.cwnd_init is not None:
        kwargs["cwnd_init"] = config.cwnd_init
    if config.ssthresh_init is not None:
        kwargs["ssthresh_init"] = config.ssthresh_init
    if config.eth:
        if config.handler is not None:
            raise ValueError("the TCP fast path targets the AN2 framing")
        from ..net.tcp import TcpConnection

        tb = make_eth_pair(client_kernel_opts=opts, server_kernel_opts=opts)
        cstack, sstack = make_stacks(tb, CLIENT_IP, SERVER_IP)
        client = TcpConnection(cstack, 5000, sstack.ip, 80, iss=1000,
                               name="ceth", **kwargs)
        server = TcpConnection(sstack, 80, cstack.ip, 5000, iss=7000,
                               name="seth", **kwargs)
        tb.server_kernel.spawn_process(
            "server", lambda p: server_body(p, server))
        tb.client_kernel.spawn_process(
            "client", lambda p: client_body(p, client))
        tb.run()
        return tb, client, server
    tb = make_an2_pair(client_kernel_opts=opts, server_kernel_opts=opts)
    cstack, sstack = make_stacks(tb, CLIENT_IP, SERVER_IP)
    client, server = tcp_pair(cstack, sstack, **kwargs)
    tb.server_kernel.spawn_process("server", lambda p: server_body(p, server))
    tb.client_kernel.spawn_process("client", lambda p: client_body(p, client))
    tb.run()
    return tb, client, server


def tcp_pingpong(
    config: Optional[TcpConfig] = None,
    iters: int = 15,
    warmup: int = 3,
) -> float:
    """TCP latency: 4-byte ping-pong; returns µs/RT."""
    config = config or TcpConfig()
    rts: list[float] = []
    total = iters + warmup

    def server_body(proc, conn):
        yield from conn.accept(proc)
        config.apply_handler(conn)
        for _ in range(total):
            data = yield from conn.read(proc, 4)
            yield from conn.write(proc, data)

    def client_body(proc, conn):
        yield from conn.connect(proc)
        config.apply_handler(conn)
        for _ in range(total):
            t0 = proc.engine.now
            yield from conn.write(proc, bytes(4))
            yield from conn.read(proc, 4)
            rts.append(to_us(proc.engine.now - t0))

    _tcp_session(config, client_body, server_body)
    return _mean(rts[warmup:])


def tcp_stream_throughput(
    config: Optional[TcpConfig] = None,
    total_bytes: int = 10 * 1024 * 1024,
    chunk: int = 8192,
) -> float:
    """TCP throughput: write ``total_bytes`` in ``chunk``-byte writes
    over the connection (Table II: 10 MB in 8 KB chunks); MB/s."""
    config = config or TcpConfig()
    span = {}

    def server_body(proc, conn):
        yield from conn.accept(proc)
        config.apply_handler(conn)
        remaining = total_bytes
        while remaining:
            take = min(remaining, 65536 // 2)
            data = yield from conn.read(proc, take)
            if not data:
                break
            remaining -= len(data)
        yield from conn.write(proc, b"done")

    def client_body(proc, conn):
        yield from conn.connect(proc)
        config.apply_handler(conn)
        payload = bytes(chunk)
        span["start"] = proc.engine.now
        sent = 0
        while sent < total_bytes:
            n = min(chunk, total_bytes - sent)
            yield from conn.write(proc, payload[:n])
            sent += n
        yield from conn.read(proc, 4)
        span["end"] = proc.engine.now

    _tcp_session(config, client_body, server_body)
    seconds = to_us(span["end"] - span["start"]) / 1e6
    return total_bytes / seconds / 1e6


# ---------------------------------------------------------------------------
# bulk transfer (the fault, crash, tenancy and fairness planes' fixture)
# ---------------------------------------------------------------------------

@dataclass
class BulkTransfer:
    """Handles of one :func:`tcp_bulk` flow.  Callers derive their own
    observables from these; stamps are engine ticks (ps), ``None``
    until the flow gets there."""

    client: Any                        #: client :class:`TcpConnection`
    server: Any                        #: server :class:`TcpConnection`
    data: bytes                        #: what the client writes
    got: Optional[bytes] = None        #: what the server read
    reply: Optional[bytes] = None      #: the server's ``b"done"``
    t0: Optional[int] = None           #: client about to connect
    connected: Optional[int] = None    #: client: handshake done
    t1: Optional[int] = None           #: client: reply read
    accepted: Optional[int] = None     #: server: accepted, handler in
    delivered: Optional[int] = None    #: server: last byte read

    def check(self, what: str = "tcp_bulk") -> None:
        if self.got != self.data or self.reply != b"done":
            raise RuntimeError(f"{what}: transfer corrupted or incomplete")


def seeded_payload(seed: int, nbytes: int) -> bytes:
    """The planes' payload: ``nbytes`` copies of one byte drawn from
    ``seed``.

    Every copy of this fixture spelled it ``bytes(random.Random(seed)
    .randrange(256) for _ in range(nbytes))`` — a fresh generator per
    byte, so the first draw, repeated.  The committed digests and fault
    schedules are of that payload, so it stays, stated plainly; it
    cannot show reordered or duplicated segments (ROADMAP, invariant
    auditor item, records what a varying payload finds).
    """
    import random  # plane-only: the paper-table worlds never load it

    return bytes([random.Random(seed).randrange(256)]) * nbytes


def tcp_bulk(tb: Testbed, data: bytes, *, flow: int = 0,
             mode: Optional[str] = None, chunk: Optional[int] = None,
             linger_us: float = 2_000_000.0, start_ps: int = 0,
             **conn_kwargs) -> BulkTransfer:
    """Spawn one client->server bulk transfer of ``data`` on ``tb``.

    Flow ``flow`` gets its own circuit pair and ports (``make_stacks``,
    ``5000+flow`` -> ``80+flow``), so any number share one link.  The
    server accepts, installs the ``mode`` fast path (``"ash"`` /
    ``"upcall"``; None = library), reads everything and answers
    ``b"done"``; the client sleeps ``start_ps``, connects, writes, reads
    the reply and lingers ``linger_us`` to answer late retransmissions
    (a lost final ack).  ``chunk`` is the tenant worlds' application
    pattern — ``chunk``-byte writes against ``2*chunk``-byte reads —
    where None is one write and one read.  ``conn_kwargs`` go to both
    :class:`TcpConnection` ends.  Nothing runs until ``tb.run()``.
    """
    cstack, sstack = make_stacks(tb, flow=flow)
    client, server = tcp_pair(cstack, sstack, 80 + flow, 5000 + flow,
                              **conn_kwargs)
    xfer = BulkTransfer(client, server, data)
    nbytes = len(data)
    write_size, read_size = (chunk, 2 * chunk) if chunk else (nbytes, nbytes)

    def server_body(proc):
        yield from server.accept(proc)
        if mode is not None:
            server.install_fastpath(mode)
        xfer.accepted = proc.engine.now
        got = bytearray()
        while len(got) < nbytes:
            part = yield from server.read(
                proc, min(nbytes - len(got), read_size))
            if not part:
                break
            got += part
        xfer.got = bytes(got)
        xfer.delivered = proc.engine.now
        yield from server.write(proc, b"done")

    def client_body(proc):
        if start_ps:
            yield proc.engine.sleep(start_ps)
        xfer.t0 = proc.engine.now
        yield from client.connect(proc)
        xfer.connected = proc.engine.now
        for off in range(0, nbytes, write_size):
            yield from client.write(proc, data[off:off + write_size])
        xfer.reply = yield from client.read(proc, 4)
        xfer.t1 = proc.engine.now
        if linger_us:
            yield from client.linger(proc, duration_us=linger_us)

    tb.server_kernel.spawn_process(f"tcp{flow}-server", server_body)
    tb.client_kernel.spawn_process(f"tcp{flow}-client", client_body)
    return xfer


#: frames a ``link`` spec of :func:`chaos_transfer` spares by default:
#: the handshake, so every run establishes
HANDSHAKE_FRAMES = 3


def chaos_transfer(nbytes: int, seed: int, *, data: Optional[bytes] = None,
                   faults: Sequence[dict] = (), mode: Optional[str] = None,
                   substrate: Optional[str] = None, ncores: int = 1,
                   rx_batch: Optional[int] = None, **conn_kwargs):
    """One seeded bulk transfer under the fault plane, run to the end.

    Builds an AN2 pair, attaches the fault plane with ``seed`` and
    installs the schedule ``faults`` on it in list order
    (:meth:`~repro.sim.faults.FaultPlane.apply_scenario`; targets by
    name, ``"link"`` / ``"server_kernel"`` / ``"server"``).  A ``link``
    spec skips the first :data:`HANDSHAKE_FRAMES` frames unless it says
    otherwise.  Then one :func:`tcp_bulk` of ``data`` (default:
    ``seeded_payload(seed, nbytes)``) with a 20 ms RTO, run to
    completion and checked byte for byte.

    Returns ``(tb, plane, transfer)`` — handles, not results: every
    caller reads the counters it cares about off them.
    """
    tb = make_an2_pair(engine=Engine(substrate=substrate), ncores=ncores,
                       rx_batch=rx_batch)
    plane = tb.attach_fault_plane(seed=seed)
    plane.apply_scenario(
        [{"skip_first": HANDSHAKE_FRAMES, **spec}
         if spec["site"] == "link" else spec for spec in faults])
    if data is None:
        data = seeded_payload(seed, nbytes)
    xfer = tcp_bulk(tb, data, mode=mode, rto_us=20_000.0, **conn_kwargs)
    tb.run()
    xfer.check(f"chaos_transfer(seed={seed}, {tb.engine.substrate})")
    return tb, plane, xfer


def recovery_us(*kernels) -> Optional[float]:
    """The crash plane's recovery figure: the longest time from a
    reboot to the first delivery after it over every crash of
    ``kernels``, in µs (None: nothing rebooted and delivered again)."""
    spans = [to_us(rec["first_delivery_after_reboot"] - rec["reboot_at"])
             for kernel in kernels for rec in kernel.crash_log
             if rec["first_delivery_after_reboot"] is not None]
    return max(spans) if spans else None


# ---------------------------------------------------------------------------
# remote increment (Table V, Fig 4)
# ---------------------------------------------------------------------------

@dataclass
class AmFlow:
    """Handles of one :func:`am_flow` remote-increment flow."""

    srv_ep: Any                    #: server endpoint the requests land on
    cli_ep: Any                    #: client endpoint the replies land on
    counter: int                   #: address of the shared counter
    params: int                    #: parameter block (the handler's user word)
    program: Any                   #: the handler (None in ``user`` mode)
    ash_id: Optional[int] = None   #: set in the ``ash`` modes

    def request(self, proc, amount: int = 1):
        """One round trip, as the client process ``proc``: send the
        4-byte ``amount`` on the request circuit, poll the reply
        endpoint, read the reply, replenish.  Returns ``(reply bytes,
        round-trip ticks)``, the clock read after the replenish."""
        cli_ep = self.cli_ep
        nic = cli_ep.nic
        ck = nic.node.kernel
        t0 = proc.engine.now
        yield from ck.sys_net_send(
            proc, nic,
            Frame(amount.to_bytes(4, "little"), vci=self.srv_ep.vci))
        desc = yield from ck.sys_recv_poll(proc, cli_ep)
        reply = nic.node.memory.read(desc.addr, desc.length)
        yield from ck.sys_replenish(proc, cli_ep, desc)
        return reply, proc.engine.now - t0


def am_flow(tb: Testbed, req_vci: int = CLIENT_TO_SERVER_VCI,
            reply_vci: int = SERVER_TO_CLIENT_VCI, *, mode: str = "ash",
            policy=None, tenant: Optional[str] = None) -> AmFlow:
    """Install one remote-increment flow on ``tb``, the paper's
    active-message example: a server endpoint on ``req_vci``, a client
    reply endpoint on ``reply_vci``, a 64-byte server state block
    (counter +0, scratch +16, parameter block +32) and the handler.

    ``mode`` is :func:`remote_increment`'s vocabulary: ``ash`` downloads
    and binds the handler sandboxed (under ``policy``, if given),
    ``ash-unsafe`` unsandboxed, ``upcall`` attaches it as an upcall and
    ``user`` installs nothing (an application serves the endpoint).
    ``tenant`` charges the endpoint and the download to that tenant of
    the server's :class:`~repro.ash.tenancy.TenantManager`.
    """
    sk, ck = tb.server_kernel, tb.client_kernel
    mem = tb.server.memory
    srv_ep = sk.create_endpoint_an2(tb.server_nic, req_vci, tenant=tenant)
    cli_ep = ck.create_endpoint_an2(tb.client_nic, reply_vci)
    state = mem.alloc(f"{srv_ep.name}.incr_state", 64)
    params = state.base + 32
    mem.store_u32(params + PARAM_COUNTER, state.base)
    mem.store_u32(params + PARAM_REPLY_VCI, reply_vci)
    mem.store_u32(params + PARAM_SCRATCH, state.base + 16)
    flow = AmFlow(srv_ep, cli_ep, state.base, params,
                  build_remote_increment() if mode != "user" else None)
    if mode in ("ash", "ash-unsafe"):
        install = dict(allowed_regions=[(state.base, 64)], user_word=params,
                       sandbox=(mode == "ash"), policy=policy)
        if tenant is not None:
            flow.ash_id = sk.tenants.download(tenant, flow.program, **install)
        else:
            flow.ash_id = sk.ash_system.download(flow.program, **install)
        sk.ash_system.bind(srv_ep, flow.ash_id)
    elif mode == "upcall":
        srv_ep.upcall = UpcallHandler(program=flow.program, user_word=params)
    elif mode != "user":
        raise ValueError(f"unknown mode {mode!r}")
    return flow


@dataclass
class RemoteIncrementResult:
    rt_us: float
    mode: str
    nprocs: int
    sandbox_added_insns: Optional[int] = None
    handler_insns: Optional[int] = None


def remote_increment(
    mode: str = "ash",
    suspended: bool = False,
    nprocs: int = 1,
    scheduler: str = "oblivious",
    iters: int = 12,
    warmup: int = 3,
) -> RemoteIncrementResult:
    """The Table V / Fig 4 workload.

    ``mode``: ``ash`` | ``ash-unsafe`` | ``upcall`` | ``user``.
    ``suspended``: the server application is blocked (not polling) when
    messages arrive; combined with ``scheduler``:
    ``oblivious`` (Aegis round robin) or ``boost`` / ``ultrix``.
    ``nprocs``: total processes on the server (extras are compute-bound
    dummies), for the Fig 4 sweep.
    """
    opts = {}
    if scheduler == "boost":
        opts = {"boost_on_packet": True}
    elif scheduler == "ultrix":
        opts = {"boost_on_packet": True, "ultrix_costs": True}
    tb = make_an2_pair(server_kernel_opts=opts)
    sk, ck = tb.server_kernel, tb.client_kernel
    flow = am_flow(tb, mode=mode)
    srv_ep, cli_ep, counter_addr = flow.srv_ep, flow.cli_ep, flow.counter
    mem = tb.server.memory
    total = iters + warmup
    rts: list[float] = []
    result = RemoteIncrementResult(rt_us=0.0, mode=mode, nprocs=nprocs)

    if flow.program is not None:
        result.handler_insns = len(flow.program)
        if flow.ash_id is not None:
            entry = sk.ash_system.entry(flow.ash_id)
            if entry.report is not None:
                result.sandbox_added_insns = entry.report.added_insns
    else:
        def server_app(proc):
            for _ in range(total):
                if suspended:
                    desc = yield from sk.sys_recv_block(proc, srv_ep)
                else:
                    desc = yield from sk.sys_recv_poll(proc, srv_ep)
                amount = mem.load_u32(desc.addr)
                value = mem.load_u32(counter_addr) + amount
                mem.store_u32(counter_addr, value)
                yield from proc.compute_us(0.5)  # the increment + checks
                yield from sk.sys_replenish(proc, srv_ep, desc)
                yield from sk.sys_net_send(
                    proc, tb.server_nic,
                    Frame(value.to_bytes(4, "little"),
                          vci=SERVER_TO_CLIENT_VCI),
                )

        srv_ep.owner = sk.spawn_process("server-app", server_app)

    # a handler-mode "suspended" server still needs something running
    dummies = nprocs - 1 if mode == "user" else nprocs
    for i in range(max(0, dummies)):
        def dummy(proc):
            yield from proc.spin()

        sk.spawn_process(f"dummy{i}", dummy)

    def client(proc):
        for _ in range(total):
            _reply, ticks = yield from flow.request(proc)
            rts.append(to_us(ticks))

    client_proc = ck.spawn_process("client", client)
    cli_ep.owner = client_proc
    # run until the client finishes (the dummies never exit; advancing
    # in bounded slices lets us stop the world as soon as it does)
    guard = 0
    while not client_proc.sim_proc.triggered and not tb.engine.idle:
        tb.engine.run(until=tb.engine.now + us(100_000.0))
        guard += 1
        if guard > 10_000:
            raise RuntimeError("remote_increment: runaway simulation")
    measured = rts[warmup:]
    if not measured:
        raise RuntimeError(
            f"remote_increment({mode}): no round trips completed"
        )
    result.rt_us = _mean(measured)
    return result


# ---------------------------------------------------------------------------
# live operations: hot ASH upgrade with staged canary rollout
# ---------------------------------------------------------------------------

def _build_increment_v2(kind: str):
    """A v2 of the remote-increment handler for the rollout workload.

    ``identical`` — byte-for-byte the v1 behaviour (a routine redeploy);
    ``divergent`` — increments by *twice* the message amount (a buggy
    release the digest guard must catch);
    ``slow`` — v1 behaviour plus 2000 instructions of straight-line
    padding (a performance regression the latency guard must catch;
    kept far below the two-tick abort budget so it degrades, not aborts).
    """
    from ..ash.handler import AshBuilder

    if kind == "identical":
        return build_remote_increment()
    b = AshBuilder("remote_increment")
    bad = b.label("pass")
    four = b.getreg()
    b.v_li(four, 4)
    b.v_bne(b.LEN, four, bad)
    if kind == "slow":
        pad = b.getreg()
        one = b.getreg()
        b.v_li(pad, 0)
        b.v_li(one, 1)
        for _ in range(2000):
            b.v_addu(pad, pad, one)
        b.putreg(pad)
        b.putreg(one)
    counter_ptr = b.getreg()
    amount = b.getreg()
    value = b.getreg()
    b.v_ld32(counter_ptr, b.CTX, PARAM_COUNTER)
    b.v_ld32(amount, b.MSG, 0)
    b.v_ld32(value, counter_ptr, 0)
    b.v_addu(value, value, amount)
    if kind == "divergent":
        b.v_addu(value, value, amount)     # the bug: += 2 * amount
    elif kind != "slow":
        raise ValueError(f"unknown v2 kind {kind!r}")
    b.v_st32(value, counter_ptr, 0)
    scratch = b.getreg()
    b.v_ld32(scratch, b.CTX, PARAM_SCRATCH)
    b.v_st32(value, scratch, 0)
    vci = b.getreg()
    b.v_ld32(vci, b.CTX, PARAM_REPLY_VCI)
    b.v_send(scratch, four, vci)
    b.v_consume()
    b.mark(bad)
    b.v_pass()
    return b.finish()


def canary_rollout(
    substrate: Optional[str] = None,
    ncores: int = 1,
    flows: int = 4,
    staged_rounds: int = 4,
    canary_rounds: int = 4,
    post_rounds: int = 2,
    v2: str = "identical",
    crash_during_canary: bool = False,
    scenario: Optional[list] = None,
    fault_seed: int = 11,
) -> dict:
    """The live-operations workload: upgrade a fleet of remote-increment
    handlers under live traffic through a staged canary rollout.

    ``flows`` independent AM flows each get their own VCI pair, state
    block and v1 handler download on the server; v2 (``identical`` /
    ``divergent`` / ``slow``) is installed next to v1 via
    :meth:`~repro.ash.system.AshSystem.install_version`.  The client
    drives serial request rounds through three phases — staged (golden
    capture), canary (a deterministic cohort on v2), post-verdict — and
    the :class:`~repro.ash.liveops.RolloutController` promotes or rolls
    back from the captured digests/latencies; a quarter of the flows
    are the canary cohort and a canary may run 25 % slower than golden.
    ``crash_during_canary`` crashes and reboots the *server* kernel for
    500 µs between canary rounds: the version bindings ride the
    boot-record replay, so the rollout must come back in its canary
    configuration with zero lost messages.

    Returns a deterministic observables dict — the substrate/SMP
    bit-identity bar for the rollout plane.
    """
    from ..ash.liveops import RolloutController

    tb = make_an2_pair(engine=Engine(substrate=substrate), ncores=ncores)
    sk, ck = tb.server_kernel, tb.client_kernel
    if scenario is not None:
        tb.attach_fault_plane(seed=fault_seed).apply_scenario(scenario)

    am_flows, targets = [], []
    for i in range(flows):
        flow = am_flow(tb, 10 + i, 100 + i)
        v2_id = sk.ash_system.install_version(
            flow.ash_id, _build_increment_v2(v2))
        am_flows.append(flow)
        targets.append((flow.srv_ep, flow.ash_id, v2_id))
    srv_eps = [flow.srv_ep for flow in am_flows]

    latency_budget = 0.25   # the controller's guard and the SLO rule's
    ctrl = RolloutController(sk, targets, latency_budget=latency_budget,
                             name=f"canary-{v2}")
    counts = {"sent": 0, "received": 0}
    last_value = [0] * flows
    round_digests: dict[str, list[str]] = {ep.name: [] for ep in srv_eps}
    staged_lat: list[float] = []
    slo_tel = tb.server.telemetry  # the hub hosting the rollout's SLO plane
    slo_flows = [slo_tel.slo.flow((0x0A000001, 9000 + i, 0x0A000002, 10 + i))
                 for i in range(flows)] if slo_tel.enabled else None

    def one_round(proc, collect=None):
        for i in range(flows):
            counts["sent"] += 1
            reply, ticks = yield from am_flows[i].request(proc)
            value = int.from_bytes(reply, "little")
            counts["received"] += 1
            delta = (value - last_value[i]) & 0xFFFFFFFF
            last_value[i] = value
            latency = to_us(ticks)
            digest = hashlib.sha256(
                delta.to_bytes(4, "little")).hexdigest()[:16]
            round_digests[srv_eps[i].name].append(digest)
            ctrl.note_round(srv_eps[i].name, digest, latency)
            if slo_flows is not None:
                slo_flows[i].observe_latency_us(latency, proc.engine.now)
            if collect is not None:
                collect.append(latency)

    def client(proc):
        for _ in range(staged_rounds):
            yield from one_round(proc, collect=staged_lat)
        if slo_tel.enabled:
            # declare the latency objective from the golden cohort: the
            # canary must stay within the same budget the controller uses
            from ..telemetry.slo import SloRule

            slo_tel.slo.add_rule(SloRule(
                "canary_latency",
                max_latency_us=_mean(staged_lat) * (1.0 + latency_budget),
            ))
        ctrl.start_canary()
        for r in range(canary_rounds):
            yield from one_round(proc)
            if crash_during_canary and r == 0:
                # quiescent-point crash: every request of the round has
                # been answered, so nothing is in flight to lose — the
                # canary bindings must ride the boot-record replay back
                sk.crash()
                yield from proc.compute_us(500.0)
                sk.reboot()
        ctrl.evaluate()
        for _ in range(post_rounds):
            yield from one_round(proc)

    client_proc = ck.spawn_process("client", client)
    for flow in am_flows:
        flow.cli_ep.owner = client_proc
    tb.run()
    if not client_proc.sim_proc.triggered:
        raise RuntimeError(
            f"canary_rollout({v2}): client stalled at "
            f"{counts['received']}/{counts['sent']} replies")

    bindings = {ep.name: sk.ash_system.entry(ep.ash_id).version
                for ep in srv_eps}
    return {
        "state": ctrl.state,
        "v2": v2,
        "canary_flows": ctrl.canary_flows(),
        "guard_reasons": sorted({r for r, _ in ctrl.guard_trips}),
        "swaps": ctrl.swaps,
        "messages_sent": counts["sent"],
        "replies_received": counts["received"],
        "lost_messages": sk.lost_messages + ck.lost_messages,
        "order_violations": (sk.degradation_order_violations
                             + ck.degradation_order_violations),
        "final_counters": list(last_value),
        "bound_versions": bindings,
        "round_digests": round_digests,
        "crashes": sk.crash_count,
        "recoveries": sk.recoveries,
        "recovery_us": recovery_us(sk),
        "ledger": (tb.fault_plane.ledger()
                   if tb.fault_plane is not None else {}),
    }


# ---------------------------------------------------------------------------
# multi-tenant isolation: noisy-neighbor containment worlds
# ---------------------------------------------------------------------------

#: of the abuse scenarios (``TENANT_ABUSE``), these four run a fully
#: concurrent world (TCP victim + AM victim + aggressor) because the
#: abuse is clipped at zero-simulated-cost points; the other three
#: perturb the aggressor's *runtime* (which costs CPU), so the world is
#: slot-paced to keep the divergence inside the aggressor's slots.
_CONCURRENT_SCENARIOS = ("flood", "leak", "hog_install", "crash_loop")

#: a quota so large it never binds — the victims' knobs must not be the
#: thing keeping them unharmed
_GENEROUS = dict(rings=8, buffers=64, handler_cycles=10_000_000,
                 bytes_per_round=1_000_000_000, burst_bytes=1_000_000_000)

AGGRESSOR_VCI = 30
AM_VICTIM_VCI = 20          #: client->server AM request circuits: 20, 21
AM_REPLY_VCI = 120          #: server->client AM reply circuits: 120, 121


def _build_sink(pad_insns: int = 0, name: str = "sink"):
    """A consume-only handler: swallows the message, sends **nothing**.

    The aggressor's handler must not reply — reply traffic would reach
    the client node, and throttling it server-side would perturb the
    client's interrupt timing, breaking the victims' bit-identity bar.
    ``pad_insns`` adds straight-line work (cycle-quota fodder).
    """
    from ..ash.handler import AshBuilder

    b = AshBuilder(name)
    if pad_insns:
        pad = b.getreg()
        one = b.getreg()
        b.v_li(pad, 0)
        b.v_li(one, 1)
        for _ in range(pad_insns):
            b.v_addu(pad, pad, one)
        b.putreg(pad)
        b.putreg(one)
    b.v_consume()
    return b.finish()


def _build_spin():
    """A handler with a backward branch: unverifiable under the
    static-estimate budget policy (the crash-loop install payload)."""
    from ..ash.handler import AshBuilder

    b = AshBuilder("spin")
    ctr = b.getreg()
    one = b.getreg()
    lim = b.getreg()
    b.v_li(ctr, 0)
    b.v_li(one, 1)
    b.v_li(lim, 8)
    top = b.label("top")
    b.mark(top)
    b.v_addu(ctr, ctr, one)
    b.v_bne(ctr, lim, top)
    b.v_consume()
    return b.finish()


#: when the scripted abuses strike (µs): mid-transfer for the victims
ABUSE_AT_US = 700.0

_MALLORY = {"target": "server_kernel.tenants", "tenant": "mallory"}

#: what each scenario does to ``mallory``, as a fault schedule.  Plain
#: data but for the two install abuses, whose ``program`` is the builder
#: of the handler they try to download (see :func:`tenant_abuse`).
TENANT_ABUSE = {
    "flood": [{"site": "tenant_flood", "target": "server_nic",
               "vci": AGGRESSOR_VCI, "frame_bytes": 4000, "count": 40,
               "start_us": ABUSE_AT_US, "gap_us": 37.0}],
    "leak": [{"site": "tenant_leak", **_MALLORY}],
    "hog_install": [{"site": "tenant_script", **_MALLORY,
                     "at_us": ABUSE_AT_US, "action": "install_hog",
                     "program": lambda: _build_sink(4000, "hog"),
                     "allowed_regions": [], "attempts": 4}],
    "crash_loop": [{"site": "tenant_script", **_MALLORY,
                    "at_us": ABUSE_AT_US, "action": "install_crashloop",
                    "program": _build_spin,
                    "allowed_regions": [], "attempts": 4}],
    "tenant_crash": [{"site": "tenant_script", **_MALLORY,
                      "at_us": ABUSE_AT_US, "action": "crash"}],
    "hog_runtime": [{"site": "tenant_hog", **_MALLORY, "factor": 64}],
    "abort_runtime": [{"site": "tenant_abort", **_MALLORY}],
}

#: every abuse scenario tenant_world() can stage
TENANT_SCENARIOS = tuple(TENANT_ABUSE)


def tenant_abuse(scenario: str) -> list[dict]:
    """``TENANT_ABUSE[scenario]``, ready to install: an install abuse's
    handler is built, and paired with the static-estimate ``policy``
    under which the tenant admission layer refuses it."""
    from ..sandbox.rewriter import BudgetPolicy, SandboxPolicy

    static = SandboxPolicy(budget=BudgetPolicy.STATIC_ESTIMATE)
    return [dict(spec, program=spec["program"](), policy=static)
            if "program" in spec else spec
            for spec in TENANT_ABUSE[scenario]]


def _victim_bulk(tb, total_bytes: int) -> BulkTransfer:
    """The tenant worlds' TCP victim: a byte ramp in 4 KiB writes, no
    linger (nothing is lost on the victim's circuit)."""
    return tcp_bulk(tb, bytes(range(256)) * (total_bytes // 256),
                    chunk=4096, linger_us=0)


def _victim_slice(manager, name: str) -> dict:
    """The tenant's own telemetry slice — part of the identity bar."""
    return manager.stats()["tenants"][name]


def tenant_world(
    substrate: Optional[str] = None,
    ncores: int = 1,
    scenario: str = "flood",
    perturbed: bool = True,
    rounds: int = 10,
) -> dict:
    """A multi-tenant world with one abusive tenant, and the receipts.

    Three tenants share the server's NIC, rx buffers and CPU under a
    :class:`~repro.ash.tenancy.TenantManager`: two victims and
    ``mallory``, the aggressor the ``scenario`` perturbs.  Running the
    same world with ``perturbed=False`` gives the unperturbed baseline;
    the containment bar is that every victim observable in the returned
    dict — flow digests, latencies, counters, the victims' own tenant
    telemetry, and (concurrent scenarios) TCP congestion digests — is
    **bit-identical** between the two runs, on both substrates and any
    SMP core count.

    Concurrent scenarios (``flood`` / ``leak`` / ``hog_install`` /
    ``crash_loop``): victims are a 24 KiB TCP bulk flow (tenant
    ``alice``) and an AM remote-increment flow (``bob``) running *fully
    concurrently* with the aggressor's traffic — the abuse is clipped at
    points that cost zero simulated time (pre-DMA admission, host-level
    install refusal, replenish-side reclaim).

    Slot-paced scenarios (``tenant_crash`` / ``hog_runtime`` /
    ``abort_runtime``): the abuse perturbs how much CPU the aggressor's
    *handler* burns, so two AM victims (``bob``, ``carol``) and the
    aggressor take strictly interleaved slots wide enough (60 µs) that
    the aggressor's divergence drains before a victim's next message
    arrives.  The fault plane is seeded 7.
    """
    from ..ash.tenancy import TenantManager

    if scenario not in TENANT_SCENARIOS:
        raise ValueError(f"unknown tenant scenario {scenario!r}")
    tb = make_an2_pair(engine=Engine(substrate=substrate), ncores=ncores)
    sk, ck = tb.server_kernel, tb.client_kernel
    manager = TenantManager(sk)
    concurrent = scenario in _CONCURRENT_SCENARIOS

    mallory_quota = dict(rings=4, buffers=4, handler_cycles=100_000,
                         bytes_per_round=1_000_000, burst_bytes=100_000)
    if scenario == "flood":
        # 4-byte request frames sail through; the flood's 4000-byte
        # frames can never fit the burst — clipped pre-DMA, every one
        mallory_quota.update(bytes_per_round=8192, burst_bytes=2048)
    elif scenario == "hog_install":
        mallory_quota.update(handler_cycles=1500)
    elif scenario == "hog_runtime":
        mallory_quota.update(handler_cycles=3000)
    manager.create("mallory", **mallory_quota)

    # -- aggressor data path -------------------------------------------------
    if scenario == "leak":
        # the leak seam lives on the replenish syscall, so the leaking
        # tenant runs an ordinary ring+replenish application (no ASH)
        mal_ep = sk.create_endpoint_an2(tb.server_nic, AGGRESSOR_VCI,
                                        tenant="mallory")

        def mallory_app(proc):
            while True:
                desc = yield from sk.sys_recv_block(proc, mal_ep)
                yield from proc.compute_us(1.0)
                yield from sk.sys_replenish(proc, mal_ep, desc)

        mal_ep.owner = sk.spawn_process("mallory-app", mallory_app)
    else:
        mal_ep = sk.create_endpoint_an2(tb.server_nic, AGGRESSOR_VCI,
                                        tenant="mallory")
        pad = 200 if not concurrent else 0
        sink_id = manager.download("mallory", _build_sink(pad),
                                   allowed_regions=[])
        sk.ash_system.bind(mal_ep, sink_id)

    if perturbed:   # the baseline is the identical world minus the abuse
        tb.attach_fault_plane(seed=7).apply_scenario(
            tenant_abuse(scenario))

    observables: dict = {
        "scenario": scenario,
        "perturbed": perturbed,
        "substrate": tb.engine.substrate,
        "ncores": ncores,
    }
    victims: dict = {}
    agg_frame = (1).to_bytes(4, "little")

    if concurrent:
        manager.create("alice", **_GENEROUS)
        manager.create("bob", **_GENEROUS)
        total_bytes = 24 * 1024
        tcp = _victim_bulk(tb, total_bytes)
        manager.adopt_endpoint("alice", tcp.server.endpoint)
        bob = am_flow(tb, AM_VICTIM_VCI, AM_REPLY_VCI, tenant="bob")
        bob_lat: list[float] = []
        bob_hash = hashlib.sha256()

        def bob_client(proc):
            for _ in range(rounds):
                reply, ticks = yield from bob.request(proc)
                bob_hash.update(reply)
                bob_lat.append(to_us(ticks))
                yield from proc.compute_us(150.0)

        def aggressor_client(proc):
            for _ in range(rounds * 2):
                yield from ck.sys_net_send(
                    proc, tb.client_nic, Frame(agg_frame, vci=AGGRESSOR_VCI))
                yield from proc.compute_us(140.0)

        bob.cli_ep.owner = ck.spawn_process("bob-client", bob_client)
        ck.spawn_process("mallory-client", aggressor_client)
        tb.run()
        if tcp.t1 is None or len(bob_lat) != rounds:
            raise RuntimeError(
                f"tenant_world({scenario}): victims stalled "
                f"(tcp={tcp.t1 is not None}, am={len(bob_lat)}/{rounds})")

        victims["alice"] = {
            "cc_client": tcp.client.congestion_digest(),
            "cc_server": tcp.server.congestion_digest(),
            "payload_sha": hashlib.sha256(tcp.got).hexdigest(),
            "bytes": total_bytes,
            "elapsed_us": round(to_us(tcp.t1 - tcp.connected), 6),
            "rx_count": tcp.server.endpoint.rx_count,
            "tenant": _victim_slice(manager, "alice"),
        }
        victims["bob"] = {
            "counter": tb.server.memory.load_u32(bob.counter),
            "latencies_us": [round(x, 6) for x in bob_lat],
            "reply_digest": bob_hash.hexdigest(),
            "rx_count": bob.srv_ep.rx_count,
            "tenant": _victim_slice(manager, "bob"),
        }
    else:
        manager.create("bob", **_GENEROUS)
        manager.create("carol", **_GENEROUS)
        flows = {
            name: am_flow(tb, AM_VICTIM_VCI + k, AM_REPLY_VCI + k, tenant=name)
            for k, name in enumerate(("bob", "carol"))
        }
        lat: dict[str, list[float]] = {name: [] for name in flows}
        hashes = {name: hashlib.sha256() for name in flows}

        def client(proc):
            for _ in range(rounds):
                # aggressor slot: fire-and-forget; any CPU-divergence
                # the abuse causes server-side drains within the slot
                yield from ck.sys_net_send(
                    proc, tb.client_nic, Frame(agg_frame, vci=AGGRESSOR_VCI))
                yield from proc.compute_us(60.0)
                for name, flow in flows.items():
                    reply, ticks = yield from flow.request(proc)
                    hashes[name].update(reply)
                    lat[name].append(to_us(ticks))
                    yield from proc.compute_us(60.0)

        client_proc = ck.spawn_process("client", client)
        for flow in flows.values():
            flow.cli_ep.owner = client_proc
        tb.run()
        if not client_proc.sim_proc.triggered:
            raise RuntimeError(f"tenant_world({scenario}): client stalled")
        for name, flow in flows.items():
            victims[name] = {
                "counter": tb.server.memory.load_u32(flow.counter),
                "latencies_us": [round(x, 6) for x in lat[name]],
                "reply_digest": hashes[name].hexdigest(),
                "rx_count": flow.srv_ep.rx_count,
                "tenant": _victim_slice(manager, name),
            }

    observables["victims"] = victims
    observables["order_violations"] = manager.order_violations
    observables["aggressor"] = _victim_slice(manager, "mallory")
    observables["ledger"] = (tb.fault_plane.ledger()
                             if tb.fault_plane is not None else {})
    return observables


def tenant_noisy_neighbor(
    substrate: Optional[str] = None,
    intensity_fps: int = 0,
    protected: bool = True,
    total_kb: int = 96,
) -> dict:
    """The isolation experiment behind ``BENCH_planes.json``'s tenant rows.

    A victim TCP bulk transfer (tenant ``alice``) shares the server
    with an aggressor (``mallory``) whose circuit is blasted for 40 ms
    with ``intensity_fps`` frames/s of 1 KiB junk, injected straight at
    the server NIC.  The aggressor's server application
    dutifully replenishes every delivered frame, so each *admitted*
    frame costs real interrupts, DMA and CPU.

    ``protected=True`` installs the tenant plane: mallory's token
    bucket admits at most ``bytes_per_round`` per round and clips the
    rest pre-DMA, so the victim's goodput must stay within 10% of its
    solo run no matter the intensity.  ``protected=False`` is the
    ablation — no quotas, every frame lands, and the victim bleeds.
    """
    from ..ash.tenancy import TenantManager

    tb = make_an2_pair(engine=Engine(substrate=substrate))
    sk, ck = tb.server_kernel, tb.client_kernel
    manager = None
    if protected:
        manager = TenantManager(sk)
        manager.create("alice", **_GENEROUS)
        manager.create("mallory", rings=4, buffers=4,
                       handler_cycles=100_000,
                       bytes_per_round=4096, burst_bytes=4096)
    mal_ep = sk.create_endpoint_an2(
        tb.server_nic, AGGRESSOR_VCI,
        tenant="mallory" if protected else None)

    def mallory_app(proc):
        while True:
            desc = yield from sk.sys_recv_block(proc, mal_ep)
            yield from proc.compute_us(2.0)
            yield from sk.sys_replenish(proc, mal_ep, desc)

    mal_ep.owner = sk.spawn_process("mallory-app", mallory_app)

    if intensity_fps > 0:
        tb.attach_fault_plane(seed=3).install(
            "tenant_flood", "server_nic", vci=AGGRESSOR_VCI,
            frame_bytes=1024, count=max(1, int(intensity_fps * 0.04)),
            start_us=50.0, gap_us=1e6 / intensity_fps)

    total_bytes = total_kb * 1024
    tcp = _victim_bulk(tb, total_bytes)
    if protected:
        manager.adopt_endpoint("alice", tcp.server.endpoint)
    tb.run()
    if tcp.t1 is None:
        raise RuntimeError("tenant_noisy_neighbor: victim transfer stalled")
    elapsed_us = to_us(tcp.t1 - tcp.connected)
    admitted = dropped = 0
    if manager is not None:
        mal = manager.stats()["tenants"]["mallory"]
        admitted = mal["counters"].get("admitted", 0)
        dropped = sum(mal["counters"].get("dropped", {}).values())
    return {
        "protected": protected,
        "intensity_fps": intensity_fps,
        "goodput_mbps": total_bytes / (elapsed_us / 1e6) / 1e6,
        "elapsed_us": round(elapsed_us, 6),
        "payload_sha": hashlib.sha256(tcp.got).hexdigest(),
        "cc_digest": tcp.client.congestion_digest(),
        "aggressor_admitted": admitted,
        "aggressor_dropped": dropped,
        "order_violations": (manager.order_violations
                             if manager is not None else 0),
    }
