"""User-level TCP: a library-based implementation of RFC 793 + 2018/5681.

Like the paper's, this is a real-but-lean TCP: three-way handshake,
sequence/ack bookkeeping, header prediction on the receive path, and a
simplified close.  The paper stresses that its implementation "is not
fully TCP compliant (it lacks support for fluent internetworking such
as fast retransmit, fast recovery, and good buffering strategies)" —
this library grows exactly those pieces, because the loss-efficiency of
the transport is what lets ASH-integrated protocol processing matter
beyond a single clean link:

* **congestion control** — slow-start and byte-counted AIMD congestion
  avoidance; sends are paced by ``min(cwnd, snd_wnd, rcv_wnd)``.  CWND
  and SSTHRESH live in the :class:`~repro.net.tcp.tcb.SharedTcb` block
  (application-durable, visible to kernel-resident handlers);
* **SACK** (RFC 2018) — SACK-permitted negotiated on the handshake;
  the receiver buffers out-of-order segments in a reassembly queue and
  advertises them as SACK blocks; the sender keeps a per-segment
  scoreboard and retransmits *selectively* (only the holes) instead of
  the old go-back-N sweep;
* **fast retransmit / fast recovery** — the dup-ack threshold (scaled
  down for small flights, RFC 5827-style early retransmit) triggers an
  immediate resend of the first hole and a NewReno recovery episode
  (``recover`` mark, partial-ack hole repair, cwnd halving);
* **adaptive RTO** — SRTT/RTTVAR estimation with Karn's rule
  (retransmitted segments never produce samples), clamped between
  ``min_rto_us`` and the configured ``rto_us``, with the existing
  exponential backoff on repeated timeouts.

The configuration knobs map to Table II's rows:

* ``checksum=False`` — rely on the AN2 CRC;
* ``in_place=True`` — data is used where it landed: the library charges
  no copy when placing payload (otherwise one copy network buffer ->
  receive ring, the paper's "additional copy between the network and
  application data structures");
* ``interrupt_driven`` — block on the ring instead of polling;
* ``sack=False`` — restore the pre-SACK transport (drop out-of-order
  data, go-back-N on timeout) for ablation runs.

The receive fast path can be hoisted into the kernel:
:meth:`TcpConnection.install_fastpath` downloads the VCODE handler from
:mod:`repro.net.tcp.fastpath` as an ASH or registers it as an upcall,
reproducing Table VI's five columns.  The handler only commits
option-less, in-order segments while the library holds no out-of-order
data; everything else aborts to the library, which reconciles the
scoreboard against the handler's SND_UNA updates lazily
(:meth:`TcpConnection._sync_una`).
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Generator, Optional, TYPE_CHECKING

from ...ash.interface import AshNotification
from ...errors import ProtocolError, SocketError
from ...hw.nic.base import RxDescriptor
from ...kernel.dpf import Predicate
from ...kernel.upcall import UpcallHandler
from ...sim.units import us
from ..checksum import le_word_sum
from ..headers import (
    ETHERTYPE_IP,
    IPPROTO_TCP,
    Ipv4Header,
    MAX_SACK_BLOCKS,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    TcpHeader,
    parse_tcp_options,
    pseudo_header,
    sack_option,
    sack_permitted_option,
)
from ..stack import NetStack
from .sack import ReassemblyQueue, SackScoreboard, SentSeg
from .segment import ParsedSegment, build_segment, parse_segment
from .tcb import MASK32, SharedTcb, SHARED_TCB_SIZE, Tcb, TcpState, seq_lt, seq_lte

if TYPE_CHECKING:  # pragma: no cover
    from ...kernel.process import Process

__all__ = ["TcpConnection"]

#: default retransmission timeout cap (coarse, as in 1990s BSD stacks);
#: also the pre-sample RTO.  Override per connection with ``rto_us=``.
RTO_US = 50_000.0
#: adaptive-RTO floor: srtt + 4*rttvar is clamped to at least this
MIN_RTO_US = 2_000.0
#: handshake retry limit
MAX_SYN_TRIES = 5
#: consecutive no-progress retransmission rounds before giving up
MAX_REXMIT_ROUNDS = 30
#: retransmission-timeout backoff cap (the RTO doubles on every
#: no-progress round up to rto_us * MAX_RTO_BACKOFF, then holds)
MAX_RTO_BACKOFF = 8
#: duplicate ACKs that trigger fast retransmit (shrunk for small
#: flights: with N segments outstanding the receiver can generate at
#: most N-1 duplicate acks, so the threshold is min(3, max(1, N-1)))
DUP_ACK_THRESHOLD = 3
#: bound on the congestion-event trail kept per connection
CC_EVENT_LIMIT = 4096


class TcpConnection:
    """One TCP connection endpoint."""

    def __init__(
        self,
        stack: NetStack,
        local_port: int,
        remote_ip: int,
        remote_port: int,
        rx_vci: Optional[int] = None,
        checksum: bool = True,
        in_place: bool = False,
        mss: Optional[int] = None,
        window: int = 8192,
        recv_buf_size: int = 65536,
        interrupt_driven: bool = False,
        iss: int = 1000,
        rto_us: float = RTO_US,
        min_rto_us: float = MIN_RTO_US,
        max_rexmit_rounds: int = MAX_REXMIT_ROUNDS,
        sack: bool = True,
        cwnd_init: Optional[int] = None,
        ssthresh_init: Optional[int] = None,
        name: Optional[str] = None,
    ):
        if recv_buf_size & (recv_buf_size - 1):
            raise SocketError("recv_buf_size must be a power of two")
        self.stack = stack
        self.kernel = stack.kernel
        self.cal = stack.kernel.cal
        self.tel = stack.kernel.node.telemetry
        self.checksum = checksum
        self.in_place = in_place
        self.interrupt_driven = interrupt_driven
        self.rto_us = rto_us
        self.min_rto_us = min(min_rto_us, rto_us)
        self.max_rexmit_rounds = max_rexmit_rounds
        self.sack = sack
        self.handler_mode: Optional[str] = None
        name = name or f"tcp{local_port}"
        self.name = name

        if mss is None:
            mss = (self.cal.an2_mtu if stack.is_an2 else self.cal.eth_mtu) - 40
            # the paper uses round MSS values: 3072 on AN2, 1500-40 on eth
            if stack.is_an2:
                mss = self.cal.an2_mtu
        self._dst_mac: Optional[bytes] = None

        mem = self.kernel.node.memory
        shared_region = mem.alloc(f"{name}.shared", SHARED_TCB_SIZE)
        self._ring_region = mem.alloc(f"{name}.ring", recv_buf_size)
        self._tmpl_region = mem.alloc(f"{name}.acktmpl", 64)
        self._staging = mem.alloc(f"{name}.staging", 128 * 1024)
        self._app_out = mem.alloc(f"{name}.appout", 64 * 1024)

        shared = SharedTcb(mem, shared_region.base)
        shared.buf_base = self._ring_region.base
        shared.buf_mask = recv_buf_size - 1
        shared.buf_size = recv_buf_size
        self.tcb = Tcb(
            local_port=local_port,
            remote_port=remote_port,
            local_ip=stack.ip,
            remote_ip=remote_ip,
            shared=shared,
            iss=iss,
            rcv_wnd=window,
            snd_wnd=window,
            mss=mss,
        )
        # congestion state is seeded into the shared block so it is
        # application-durable from the first byte (RFC 3390 initial
        # window unless overridden; ssthresh starts at the send window)
        if cwnd_init is None:
            cwnd_init = min(4 * mss, max(2 * mss, 4380))
        shared.cwnd = max(mss, min(cwnd_init, window))
        shared.ssthresh = ssthresh_init if ssthresh_init is not None else window
        #: per-flow SLO stats, keyed by the 4-tuple.  Created eagerly so
        #: the cached instruments stay valid across enable()/disable()
        #: flips; every recording call is a no-op branch while disabled.
        self.flow = (self.tcb.local_ip, self.tcb.local_port,
                     self.tcb.remote_ip, self.tcb.remote_port)
        self._flow = self.tel.slo.flow(self.flow)
        self.tel.add_collector(self._collect)
        #: sender scoreboard: every in-flight segment, SACK marks and all
        self._board = SackScoreboard()
        #: receiver reassembly queue for out-of-order segments
        self._ooo = ReassemblyQueue(limit=recv_buf_size)
        self._dup_ack_count = 0   #: consecutive duplicate ACKs seen
        self._rto_backoff = 1     #: current RTO multiplier (exponential)
        self._srtt_us: Optional[float] = None
        self._rttvar_us = 0.0
        self.peer_fin = False
        #: bounded congestion-event trail: (t, kind, cwnd, ssthresh)
        #: tuples for every cwnd transition — the substrate/SMP identity
        #: digests hash this verbatim
        self.cc_events: deque[tuple[int, str, int, int]] = deque(
            maxlen=CC_EVENT_LIMIT
        )
        self._cc_event("init", self.kernel.engine.now)

        if stack.is_an2:
            if rx_vci is None:
                raise SocketError("AN2 TCP connections need an rx_vci")
            # "the TCP implementation uses the virtual circuit identifier
            # and the ports in the protocol header to demultiplex"
            self.endpoint = self.kernel.create_endpoint_an2(
                stack.nic, rx_vci, name=name, buf_size=self.cal.an2_max_packet,
            )
        else:
            self.endpoint = self.kernel.create_endpoint_eth(
                stack.nic,
                [
                    Predicate(offset=12, size=2, value=ETHERTYPE_IP),
                    Predicate(offset=14 + 9, size=1, value=IPPROTO_TCP),
                    Predicate(offset=14 + 20 + 2, size=2, value=local_port),
                ],
                name=name,
            )

    def _collect(self, reg) -> None:
        """The TCB's statistics as ``tcp.*{conn}`` totals."""
        tcb, conn = self.tcb, self.name
        reg.total("tcp.tx_segments", tcb.tx_segments, conn=conn)
        reg.total("tcp.rx_segments", tcb.rx_segments, conn=conn)
        reg.total("tcp.retransmits", tcb.retransmits, conn=conn)
        reg.total("tcp.fast_retransmits", tcb.fast_retransmits, conn=conn)
        reg.total("tcp.fast_recovery.entries", tcb.fast_recoveries, conn=conn)
        reg.total("tcp.checksum_failures", tcb.checksum_failures, conn=conn)
        reg.total("tcp.sack.blocks_rx", tcb.sack_blocks_rx, conn=conn)
        reg.total("tcp.sack.blocks_tx", tcb.sack_blocks_tx, conn=conn)
        reg.total("tcp.sack.sacked_bytes", tcb.sacked_bytes, conn=conn)
        reg.total("tcp.sack.ooo_queued", tcb.ooo_buffered, conn=conn)
        reg.total("tcp.sack.selective_rexmits", tcb.selective_rexmits,
                  conn=conn)

    # ------------------------------------------------------------------
    # congestion bookkeeping
    # ------------------------------------------------------------------
    def _cc_event(self, kind: str, now) -> None:
        sh = self.tcb.shared
        self.cc_events.append((int(now), kind, sh.cwnd, sh.ssthresh))

    def congestion_digest(self) -> str:
        """Stable hash of the congestion-event trail (determinism tests
        compare it across substrates and SMP core counts)."""
        h = hashlib.sha256()
        for ev in self.cc_events:
            h.update(repr(ev).encode())
        return h.hexdigest()

    def _dup_thresh(self) -> int:
        """Early retransmit: with a small flight the receiver can never
        produce three duplicate acks, so the threshold shrinks."""
        return min(DUP_ACK_THRESHOLD, max(1, len(self._board) - 1))

    def _rtt_sample(self, sample_us: float) -> None:
        if self._srtt_us is None:
            self._srtt_us = sample_us
            self._rttvar_us = sample_us / 2.0
        else:
            self._rttvar_us = (0.75 * self._rttvar_us
                               + 0.25 * abs(self._srtt_us - sample_us))
            self._srtt_us = 0.875 * self._srtt_us + 0.125 * sample_us

    def _rto(self) -> float:
        """Effective (un-backed-off) retransmission timeout in us."""
        if self._srtt_us is None:
            return self.rto_us
        rto = self._srtt_us + 4.0 * self._rttvar_us
        return min(max(rto, self.min_rto_us), self.rto_us)

    def _grow_cwnd(self, acked: int, now) -> None:
        """Byte-counted slow start / congestion avoidance (RFC 3465)."""
        if not acked:
            return
        tcb = self.tcb
        sh = tcb.shared
        if tcb.in_recovery:
            return
        cwnd = sh.cwnd
        cap = max(tcb.snd_wnd, 2 * tcb.mss)
        if cwnd >= cap:
            return
        if cwnd < sh.ssthresh:
            cwnd += min(acked, 2 * tcb.mss)
        else:
            tcb.cwnd_acc += acked
            if tcb.cwnd_acc >= cwnd:
                tcb.cwnd_acc -= cwnd
                cwnd += tcb.mss
        cwnd = min(cwnd, cap)
        if cwnd != sh.cwnd:
            sh.cwnd = cwnd
            if self.tel.enabled:
                self.tel.gauge("tcp.cwnd", conn=self.name).set(cwnd)
            self._cc_event("grow", now)

    def _sync_una(self, now) -> None:
        """Reconcile the scoreboard with ACKs a kernel-resident handler
        consumed: the ASH commits SND_UNA straight into the shared
        block, so the library retires those segments (and grows cwnd)
        lazily on its next wakeup.  Handler-consumed acks carry no
        arrival timestamp, so they never produce an RTT sample."""
        board = self._board
        if not board:
            return
        tcb = self.tcb
        ack = tcb.shared.snd_una
        newly, _sample = board.ack(ack)
        if newly:
            self._dup_ack_count = 0
            self._rto_backoff = 1
            if tcb.in_recovery and not seq_lt(ack, tcb.recover):
                self._exit_recovery(now)
            self._grow_cwnd(newly, now)

    def _enter_recovery(self, proc: "Process") -> Generator:
        """Dup-ack threshold reached: halve, mark, resend the hole."""
        tcb = self.tcb
        sh = tcb.shared
        now = proc.engine.now
        self._dup_ack_count = 0
        sh.ssthresh = max(tcb.snd_inflight // 2, 2 * tcb.mss)
        sh.cwnd = sh.ssthresh
        tcb.cwnd_acc = 0
        tcb.in_recovery = True
        tcb.recover = tcb.snd_nxt
        tcb.fast_recoveries += 1
        if self.tel.enabled:
            self.tel.gauge("tcp.cwnd", conn=self.name).set(sh.cwnd)
            self.tel.gauge("tcp.ssthresh", conn=self.name).set(sh.ssthresh)
            self._flow.recovery(now)
            self.tel.flight.record(
                "fast_recovery", now, conn=self.name, cwnd=sh.cwnd,
                ssthresh=sh.ssthresh, snd_una=sh.snd_una,
                recover=tcb.recover,
            )
        self._cc_event("fast_recovery", now)
        hole = self._board.first_unsacked()
        if hole is not None:
            yield from self._fast_resend(proc, hole)

    def _exit_recovery(self, now) -> None:
        tcb = self.tcb
        sh = tcb.shared
        tcb.in_recovery = False
        sh.cwnd = sh.ssthresh
        tcb.cwnd_acc = 0
        if self.tel.enabled:
            self.tel.counter("tcp.fast_recovery.exits", conn=self.name).inc()
            self.tel.gauge("tcp.cwnd", conn=self.name).set(sh.cwnd)
        self._cc_event("recovery_exit", now)

    def _fast_resend(self, proc: "Process", seg: SentSeg) -> Generator:
        """Resend one scoreboard hole without waiting out the timer."""
        seg.rexmits += 1
        self.tcb.fast_retransmits += 1
        self._flow.retransmit(proc.engine.now)
        yield from self._send_data(
            proc, seg.payload, push=True, seq=seg.seq, rexmit=True
        )

    # ------------------------------------------------------------------
    # connection establishment
    # ------------------------------------------------------------------
    def connect(self, proc: "Process") -> Generator:
        """Active open: SYN -> SYN+ACK -> ACK (SACK-permitted offered)."""
        tcb = self.tcb
        sh = tcb.shared
        self.endpoint.owner = proc
        if not self.stack.is_an2:
            self._dst_mac = yield from self.stack.resolve_mac(
                proc, tcb.remote_ip
            )
        tcb.state = TcpState.SYN_SENT
        tcb.snd_nxt = tcb.iss
        sh.snd_una = tcb.iss
        syn_opts = sack_permitted_option() if self.sack else b""
        for _try in range(MAX_SYN_TRIES):
            yield from self._send_flags(
                proc, TCP_SYN, seq=tcb.iss, ack=0, options=syn_opts
            )
            got = yield from self._pump(proc, timeout_us=self.rto_us)
            if got and tcb.state is TcpState.ESTABLISHED:
                return
            while tcb.state is not TcpState.ESTABLISHED:
                got = yield from self._pump(proc, timeout_us=self.rto_us)
                if not got:
                    break
            if tcb.state is TcpState.ESTABLISHED:
                return
        # the peer never completed the handshake — most likely it
        # crashed mid-three-way (its kernel-volatile listen state is
        # gone); surface the full 4-tuple post-mortem, not a bare string
        raise self._peer_dead("connect", rounds=MAX_SYN_TRIES)

    def accept(self, proc: "Process") -> Generator:
        """Passive open: wait for SYN, answer SYN+ACK, await the ACK.

        Bounded: ``max_rexmit_rounds`` silent pump rounds with the
        handshake still incomplete (the client crashed before its ACK,
        or before even sending SYN) raise the same 4-tuple-carrying
        :class:`ProtocolError` the data paths use — never an unbounded
        hang."""
        tcb = self.tcb
        self.endpoint.owner = proc
        tcb.state = TcpState.LISTEN
        stale_rounds = 0
        while tcb.state is not TcpState.ESTABLISHED:
            got = yield from self._pump(proc, timeout_us=self.rto_us)
            if got:
                stale_rounds = 0
                continue
            stale_rounds += 1
            if stale_rounds > self.max_rexmit_rounds:
                raise self._peer_dead("accept")
            if tcb.state is TcpState.SYN_RCVD:
                # retransmit our SYN+ACK (with the same option offer)
                opts = sack_permitted_option() if tcb.sack_ok else b""
                yield from self._send_flags(
                    proc, TCP_SYN | TCP_ACK, seq=tcb.iss,
                    ack=tcb.shared.rcv_nxt, options=opts,
                )

    # ------------------------------------------------------------------
    # data transfer
    # ------------------------------------------------------------------
    def write(self, proc: "Process", data: bytes) -> Generator:
        """Synchronous send: returns once every byte is acknowledged
        ("the write call is synchronous — write waits for an
        acknowledgment before returning")."""
        tcb = self.tcb
        sh = tcb.shared
        if tcb.state is not TcpState.ESTABLISHED:
            raise SocketError(f"{self.name}: write on {tcb.state.value}")
        target = (tcb.snd_nxt + len(data)) & MASK32
        offset = 0
        stale_rounds = 0
        last_una = sh.snd_una
        write_start = proc.engine.now
        while seq_lt(sh.snd_una, target):
            sh.lib_busy = 1
            self._sync_una(proc.engine.now)
            # fill the window: congestion-paced, with SACKed bytes
            # credited so recovery does not stall new data
            while offset < len(data):
                chunk = min(
                    tcb.mss, len(data) - offset,
                    tcb.window_open(self._board.sacked_bytes),
                )
                if chunk <= 0:
                    break
                payload = data[offset:offset + chunk]
                push = offset + chunk >= len(data)
                yield from self._send_data(proc, payload, push)
                offset += chunk
            sh.lib_busy = 0
            if not seq_lt(sh.snd_una, target):
                break
            got = yield from self._pump(
                proc, timeout_us=self._rto() * self._rto_backoff
            )
            if got:
                self._sync_una(proc.engine.now)
            else:
                yield from self._retransmit(proc)
                self._escalate_backoff(proc.engine.now)
            if sh.snd_una == last_una:
                stale_rounds += 1
                if stale_rounds > self.max_rexmit_rounds:
                    raise self._peer_dead("write")
            else:
                stale_rounds = 0
                last_una = sh.snd_una
        if self.tel.enabled:
            # sender-side flow latency: first byte handed to the stack
            # until the last byte of this write was acknowledged
            now = proc.engine.now
            self._flow.observe_latency_us((now - write_start) / 1e6, now)
            self._flow.goodput(len(data))
        yield from proc.compute_us(self.cal.tcp_sync_write_us)

    def read(self, proc: "Process", n: int) -> Generator:
        """Read exactly ``n`` bytes (fewer only at EOF)."""
        tcb = self.tcb
        sh = tcb.shared
        mem = self.kernel.node.memory
        out = bytearray()
        stale_rounds = 0
        while len(out) < n:
            avail = sh.available
            if avail:
                sh.lib_busy = 1
                take = min(avail, n - len(out))
                pos = sh.read_count & sh.buf_mask
                first = min(take, sh.buf_size - pos)
                out += mem.read(sh.buf_base + pos, first)
                if take > first:
                    out += mem.read(sh.buf_base, take - first)
                sh.read_count = (sh.read_count + take) & MASK32
                sh.lib_busy = 0
                if self.tel.enabled:
                    # receiver-side goodput: bytes delivered to the app
                    self._flow.goodput(take)
                if not self.in_place and self.handler_mode is None:
                    # the read-interface copy into application data
                    # structures (skipped "in place", and when a handler
                    # already placed the data in the right place)
                    dst = self._app_out.base
                    cycles = self.stack.datapath.copy(
                        sh.buf_base + pos, dst, min(first, self._app_out.size)
                    )
                    if take > first:
                        cycles += self.stack.datapath.copy(
                            sh.buf_base, dst,
                            min(take - first, self._app_out.size),
                        )
                    yield from proc.compute(cycles)
                yield from proc.compute_us(self.cal.tcp_read_wakeup_us)
                continue
            if self.peer_fin:
                break
            got = yield from self._pump(
                proc, timeout_us=self._rto() * self._rto_backoff
            )
            if not got:
                yield from self._retransmit(proc)
                if self._board:
                    # we are owed an acknowledgment and nothing moves:
                    # back off, and bound the wait so a dead peer surfaces
                    # as an error instead of an infinite read
                    self._escalate_backoff(proc.engine.now)
                    stale_rounds += 1
                    if stale_rounds > self.max_rexmit_rounds:
                        raise self._peer_dead("read")
            else:
                stale_rounds = 0
        return bytes(out)

    def _escalate_backoff(self, now) -> None:
        """Double the RTO multiplier after a no-progress round; the
        escalation itself is a flight-recorder event so post-mortems
        show the congestion state leading up to an abort."""
        new_backoff = min(self._rto_backoff * 2, MAX_RTO_BACKOFF)
        if new_backoff == self._rto_backoff:
            return
        self._rto_backoff = new_backoff
        sh = self.tcb.shared
        if self.tel.enabled:
            self.tel.counter("tcp.rto_backoffs", conn=self.name).inc()
            self.tel.flight.record(
                "rto_backoff", now, conn=self.name, backoff=new_backoff,
                cwnd=sh.cwnd, ssthresh=sh.ssthresh, snd_una=sh.snd_una,
            )
        self._cc_event("backoff", now)

    def _peer_dead(self, where: str,
                   rounds: Optional[int] = None) -> ProtocolError:
        """Build the bounded-retransmission give-up error.

        It carries everything a post-mortem needs without a re-run: the
        flow 4-tuple (``.flow``), the final shared-TCB fields
        (``.tcb_final``, congestion state included) and the raw block
        (``.tcb_blob``).
        """
        tcb = self.tcb
        flow = (tcb.local_ip, tcb.local_port, tcb.remote_ip, tcb.remote_port)
        final = tcb.shared.fields()
        if rounds is None:
            rounds = self.max_rexmit_rounds
        err = ProtocolError(
            f"{self.name}: peer unresponsive in {where} "
            f"({rounds} retransmission rounds with no "
            f"acknowledgment progress); flow "
            f"{flow[0]:#010x}:{flow[1]} -> {flow[2]:#010x}:{flow[3]}, "
            f"snd_una={final['snd_una']} snd_nxt={tcb.snd_nxt} "
            f"rcv_nxt={final['rcv_nxt']} cwnd={final['cwnd']} "
            f"ssthresh={final['ssthresh']} state={tcb.state.value}"
        )
        err.flow = flow
        err.tcb_final = final
        err.tcb_blob = tcb.shared.snapshot()
        if self.tel.enabled:
            now = self.kernel.engine.now
            self._flow.abort(now)
            self.tel.flight.record(
                "protocol_error", now, conn=self.name, where=where,
                flow=self._flow.label,
            )
            self.tel.flight.dump("protocol_error", now, conn=self.name,
                                 where=where)
        return err

    def linger(self, proc: "Process", duration_us: float = 100_000.0) -> Generator:
        """Keep servicing the connection for a while after the
        application is done with it.

        A user-level TCP has no kernel socket to answer late
        retransmissions once the process stops calling read/write; this
        is the TIME_WAIT-ish tail that acknowledges a peer whose final
        ack was lost.
        """
        engine = proc.engine
        deadline = engine.now + us(duration_us)
        while engine.now < deadline:
            remaining = (deadline - engine.now) / us(1.0)
            got = yield from self._pump(proc, timeout_us=remaining)
            if not got:
                return

    def close(self, proc: "Process") -> Generator:
        """Simplified close: FIN, await its ack (and ack the peer's)."""
        tcb = self.tcb
        sh = tcb.shared
        if tcb.state is not TcpState.ESTABLISHED:
            return
        tcb.state = TcpState.FIN_WAIT_1
        fin_seq = tcb.snd_nxt
        yield from self._send_flags(
            proc, TCP_FIN | TCP_ACK, seq=fin_seq, ack=sh.rcv_nxt
        )
        tcb.snd_nxt = (tcb.snd_nxt + 1) & MASK32
        sh.ack_seq = tcb.snd_nxt
        deadline = 10
        while seq_lt(sh.snd_una, tcb.snd_nxt) and deadline > 0:
            got = yield from self._pump(proc, timeout_us=self.rto_us)
            if not got:
                deadline -= 1
                yield from self._send_flags(
                    proc, TCP_FIN | TCP_ACK, seq=fin_seq, ack=sh.rcv_nxt
                )
        tcb.state = TcpState.CLOSED

    # ------------------------------------------------------------------
    # the receive pump
    # ------------------------------------------------------------------
    def _pump(self, proc: "Process", timeout_us: Optional[float] = None) -> Generator:
        """Wait for one network event and process it.

        Returns True if an event was handled, False on timeout.
        """
        if timeout_us is None:
            timeout_us = self.rto_us
        ring = self.endpoint.ring
        engine = proc.engine
        ok, item = ring.try_get()
        if not ok:
            get_ev = ring.get()
            timeout = engine.timeout(us(timeout_us))
            result = yield from proc.block_on(
                engine.any_of([get_ev, timeout])
            )
            if get_ev not in result:
                ring.cancel_get(get_ev)
                return False
            # data won the race: the timer is cancelled outright instead
            # of left to fire as a dead event (tombstone churn at scale)
            timeout.cancel()
            item = result[get_ev]
        if not self.interrupt_driven:
            # Polling receiver, modelled event-driven (see Process.poll):
            # discovery happens one poll-check after arrival, while
            # scheduled.
            yield from proc.compute_us(self.cal.poll_check_us)
        if isinstance(item, AshNotification):
            # data/acks were handled in the kernel; we were only woken.
            # The handler may have advanced SND_UNA: reconcile.
            yield from proc.compute_us(2.0)
            self._sync_una(proc.engine.now)
            return True
        yield from proc.compute_us(self.cal.user_recv_path_us)
        yield from self._process_desc(proc, item)
        return True

    def _process_desc(self, proc: "Process", desc: RxDescriptor) -> Generator:
        tcb = self.tcb
        sh = tcb.shared
        cal = self.cal
        mem = self.kernel.node.memory
        sh.lib_busy = 1
        tracker = self.tel.spans
        prev_active = tracker.active
        try:
            # fast substrate: raw is a zero-copy view of the receive
            # buffer; everything parsed from it is consumed (written
            # into the ring) before the replenish below recycles it
            ip_addr, ip_len, raw = self.stack.read_ip_packet(desc)
            span = desc.span
            if span is not None:
                span.stage("tcp_segment", proc.engine.now)
                # while this segment is being processed it is the node's
                # active delivery: ACKs and replies sent from here carry
                # its causal lineage in their trace context
                tracker.active = span
            tcb.rx_segments += 1
            if self.tel.enabled:
                self._flow.rx_segment(ip_len)
                self.kernel.node.trace(
                    "tcp.rx_segment", lambda: {"conn": self.name, "len": ip_len}
                )
            try:
                seg = parse_segment(raw, ip_addr)
            except ProtocolError:
                yield from proc.compute_us(cal.tcp_recv_slow_us)
                return
            if (seg.tcp.dst_port != tcb.local_port
                    or seg.tcp.src_port != tcb.remote_port):
                return  # not this connection's segment

            predicted = (
                tcb.state is TcpState.ESTABLISHED
                and seg.tcp.flags in (TCP_ACK, TCP_ACK | TCP_PSH)
                and seg.tcp.seq == sh.rcv_nxt
                and not seg.tcp.options
            )
            if predicted:
                tcb.hdrpred_hits += 1
                yield from proc.compute_us(cal.tcp_recv_hdrpred_us)
            else:
                tcb.slow_segments += 1
                yield from proc.compute_us(cal.tcp_recv_slow_us)

            if self.checksum and seg.tcp.checksum:
                _, cycles = self.stack.datapath.checksum(
                    ip_addr + Ipv4Header.SIZE, ip_len - Ipv4Header.SIZE
                )
                yield from proc.compute(cycles)
                yield from proc.compute_us(cal.cksum_fixed_us)
                tcp_and_payload = raw[Ipv4Header.SIZE:seg.ip.total_length]
                if not TcpHeader.verify(seg.ip.src, seg.ip.dst, tcp_and_payload):
                    # corrupt: drop-and-count; the sender's timer recovers
                    tcb.checksum_failures += 1
                    self._flow.loss(proc.engine.now)
                    return

            yield from self._segment_arrived(proc, seg)
        finally:
            tracker.active = prev_active
            sh.lib_busy = 0
            yield from self.kernel.sys_replenish(proc, self.endpoint, desc)

    def _parse_options(self, seg: ParsedSegment) -> Optional[dict]:
        if not seg.tcp.options:
            return None
        try:
            return parse_tcp_options(seg.tcp.options)
        except ProtocolError:
            return None   # malformed option run: treat as option-less

    def _segment_arrived(self, proc: "Process", seg: ParsedSegment) -> Generator:
        tcb = self.tcb
        sh = tcb.shared
        flags = seg.tcp.flags
        state = tcb.state

        if flags & TCP_RST:
            tcb.state = TcpState.CLOSED
            return

        # -- handshake states -------------------------------------------
        if state is TcpState.LISTEN and flags & TCP_SYN:
            opts = self._parse_options(seg)
            tcb.sack_ok = self.sack and bool(opts and opts["sack_permitted"])
            sh.rcv_nxt = (seg.tcp.seq + 1) & MASK32
            tcb.snd_nxt = tcb.iss
            sh.snd_una = tcb.iss
            tcb.state = TcpState.SYN_RCVD
            yield from self._send_flags(
                proc, TCP_SYN | TCP_ACK, seq=tcb.iss, ack=sh.rcv_nxt,
                options=sack_permitted_option() if tcb.sack_ok else b"",
            )
            tcb.snd_nxt = (tcb.iss + 1) & MASK32
            sh.ack_seq = tcb.snd_nxt
            return
        if state is TcpState.SYN_SENT and flags & TCP_SYN and flags & TCP_ACK:
            if seg.tcp.ack != (tcb.iss + 1) & MASK32:
                return
            opts = self._parse_options(seg)
            tcb.sack_ok = self.sack and bool(opts and opts["sack_permitted"])
            sh.rcv_nxt = (seg.tcp.seq + 1) & MASK32
            tcb.snd_nxt = (tcb.iss + 1) & MASK32
            sh.snd_una = tcb.snd_nxt
            sh.ack_seq = tcb.snd_nxt
            tcb.snd_wnd = seg.tcp.window
            tcb.state = TcpState.ESTABLISHED
            yield from self._send_ack(proc)
            return
        if state is TcpState.SYN_RCVD and flags & TCP_ACK and not flags & TCP_SYN:
            if seg.tcp.ack == (tcb.iss + 1) & MASK32:
                sh.snd_una = seg.tcp.ack
                tcb.snd_wnd = seg.tcp.window
                tcb.state = TcpState.ESTABLISHED
            # fall through: the segment may carry data too

        # -- established-path ACK bookkeeping -----------------------------
        if flags & TCP_ACK:
            yield from self._process_ack(proc, seg)

        # -- data ----------------------------------------------------------
        if seg.payload_len:
            yield from self._accept_data(proc, seg)

        # -- FIN ----------------------------------------------------------
        if flags & TCP_FIN and seg.tcp.seq == sh.rcv_nxt or (
            flags & TCP_FIN and seg.payload_len
            and (seg.tcp.seq + seg.payload_len) & MASK32 == sh.rcv_nxt
        ):
            sh.rcv_nxt = (sh.rcv_nxt + 1) & MASK32
            self.peer_fin = True
            if tcb.state is TcpState.ESTABLISHED:
                tcb.state = TcpState.CLOSE_WAIT
            yield from self._send_ack(proc)
            # answer with our own FIN immediately (simplified close)
            if tcb.state is TcpState.CLOSE_WAIT:
                fin_seq = tcb.snd_nxt
                yield from self._send_flags(
                    proc, TCP_FIN | TCP_ACK, seq=fin_seq, ack=sh.rcv_nxt
                )
                tcb.snd_nxt = (tcb.snd_nxt + 1) & MASK32
                sh.ack_seq = tcb.snd_nxt
                tcb.state = TcpState.LAST_ACK

    def _process_ack(self, proc: "Process", seg: ParsedSegment) -> Generator:
        """Sender-side ACK machinery: scoreboard retirement, SACK block
        application, cwnd evolution, dup-ack fast retransmit, NewReno
        partial-ack hole repair."""
        tcb = self.tcb
        sh = tcb.shared
        board = self._board
        ack = seg.tcp.ack
        now = proc.engine.now

        # SACK blocks first: they refine the scoreboard regardless of
        # whether the cumulative ack moves
        if tcb.sack_ok:
            opts = self._parse_options(seg)
            if opts and opts["sack_blocks"]:
                blocks = opts["sack_blocks"]
                tcb.sack_blocks_rx += len(blocks)
                tcb.sacked_bytes += board.apply_sack(blocks)

        if seq_lt(sh.snd_una, ack) and seq_lte(ack, tcb.snd_nxt):
            sh.snd_una = ack
            newly, sample = board.ack(ack)
            if sample is not None:
                # Karn's rule: `sample` is never a retransmitted segment
                self._rtt_sample((now - sample.sent_at) / us(1.0))
            self._dup_ack_count = 0
            self._rto_backoff = 1
            if tcb.in_recovery:
                if seq_lt(ack, tcb.recover):
                    # NewReno partial ack: the next hole is proven lost;
                    # resend it now instead of waiting for more dup acks
                    hole = board.first_unsacked()
                    if hole is not None:
                        yield from self._fast_resend(proc, hole)
                else:
                    self._exit_recovery(now)
                    self._grow_cwnd(newly, now)
            else:
                self._grow_cwnd(newly, now)
        elif (
            ack == sh.snd_una
            and board
            and not seg.payload_len
            and not flags_syn_fin(seg.tcp.flags)
        ):
            # pure duplicate ACK: the receiver is signalling a hole
            tcb.dup_acks_rcvd += 1
            self._dup_ack_count += 1
            if not tcb.in_recovery:
                if self._dup_ack_count >= self._dup_thresh():
                    yield from self._enter_recovery(proc)
            else:
                # during recovery every dup ack may carry fresh SACK
                # info: repair the next proven hole exactly once
                for hole in board.holes_below_sacked():
                    if hole.rexmits == 0:
                        yield from self._fast_resend(proc, hole)
                        break
        tcb.snd_wnd = seg.tcp.window

    def _accept_data(self, proc: "Process", seg: ParsedSegment) -> Generator:
        """Place payload: in-order into the receive ring, out-of-order
        into the reassembly queue (SACK) or dropped (legacy)."""
        tcb = self.tcb
        sh = tcb.shared
        seq = seg.tcp.seq
        payload = seg.payload
        src_addr = seg.payload_addr

        if seq != sh.rcv_nxt:
            offset = (sh.rcv_nxt - seq) & MASK32
            if 0 < offset < seg.payload_len:
                # overlaps rcv_nxt: trim the stale prefix, deliver the rest
                payload = payload[offset:]
                src_addr += offset
                seq = sh.rcv_nxt
            else:
                ahead = offset > 0x7FFFFFFF   # a hole precedes this segment
                if ahead and tcb.sack_ok:
                    # buffer it for later delivery (the pre-SACK library
                    # threw it away) and advertise the range back
                    if self._ooo.add(seq, bytes(payload), sh.rcv_nxt):
                        tcb.ooo_buffered += 1
                        # the buffering copy out of the network buffer
                        yield from proc.compute(
                            self.stack.datapath.copy(
                                src_addr, sh.buf_base, len(payload)
                            )
                        )
                    # while this is nonzero the kernel fast path must
                    # abort to the library (see tcb.OOO_PENDING)
                    sh.ooo_pending = self._ooo.buffered
                yield from self._send_ack(proc)
                return
        if sh.free_space < len(payload):
            # no room: drop; the sender's timer will retry
            yield from self._send_ack(proc)
            return

        # The buffering copy out of the network buffer is unavoidable in
        # the library path ("the data that is piggybacked on the
        # acknowledgment has to be buffered until the client calls read,
        # which leads to an additional copy in our current
        # implementation").  The ASH fast path fuses it with the
        # checksum; here it is a separate traversal.
        yield from self._ring_write(proc, payload, src_addr)
        sh.rcv_nxt = (seq + len(payload)) & MASK32

        # drain any reassembled data that just became contiguous
        while self._ooo:
            ready = self._ooo.pop_ready(sh.rcv_nxt)
            if not ready:
                break
            if sh.free_space < len(ready):
                self._ooo.add(sh.rcv_nxt, ready, sh.rcv_nxt)  # retry later
                break
            yield from self._ring_write(proc, ready)
            sh.rcv_nxt = (sh.rcv_nxt + len(ready)) & MASK32
        sh.ooo_pending = self._ooo.buffered
        yield from self._send_ack(proc)

    def _ring_write(self, proc: "Process", data,
                    src_addr: Optional[int] = None) -> Generator:
        """Append ``data`` to the receive ring at WRITE_COUNT (wrapping
        at the end of the buffer), charging the copy from ``src_addr``
        — or, for host bytes out of the reassembly queue, which have no
        address, from the ring base standing in for one."""
        sh = self.tcb.shared
        mem = self.kernel.node.memory
        pos = sh.write_count & sh.buf_mask
        first = min(len(data), sh.buf_size - pos)
        rest = len(data) - first
        if src_addr is None:
            src_addr = rest_addr = sh.buf_base
        else:
            rest_addr = src_addr + first
        cycles = self.stack.datapath.copy(src_addr, sh.buf_base + pos, first)
        if rest:
            cycles += self.stack.datapath.copy(rest_addr, sh.buf_base, rest)
        # the bytes themselves land last: whatever address the charged
        # copy read from, the ring ends up holding ``data``
        mem.write(sh.buf_base + pos, data[:first])
        if rest:
            mem.write(sh.buf_base, data[first:])
        yield from proc.compute(cycles)
        sh.write_count = (sh.write_count + len(data)) & MASK32

    # ------------------------------------------------------------------
    # transmit helpers
    # ------------------------------------------------------------------
    def _frame_and_send(self, proc: "Process", packet: bytes) -> Generator:
        frame = self.stack.frame_for(self.tcb.remote_ip, packet, self._dst_mac)
        self.tcb.tx_segments += 1
        if self.tel.enabled:
            self._flow.tx_segment(len(packet))
            self.kernel.node.trace(
                "tcp.tx_segment", lambda: {"conn": self.name, "len": len(packet)}
            )
        yield from self.kernel.sys_net_send(proc, self.stack.nic, frame)

    def _send_data(self, proc: "Process", payload: bytes, push: bool,
                   seq: Optional[int] = None, rexmit: bool = False) -> Generator:
        tcb = self.tcb
        sh = tcb.shared
        cal = self.cal
        mem = self.kernel.node.memory
        yield from proc.compute_us(cal.tcp_send_build_us + cal.ip_process_us)
        if seq is None:
            seq = tcb.snd_nxt
        # stage the payload where checksumming/retransmission can see it;
        # this is the write-interface copy from application structures
        # into the socket buffer (paid in every Table II configuration)
        stage = self._staging.base + (seq % (self._staging.size - tcb.mss))
        yield from proc.compute(
            self.stack.datapath.copy_in(stage, payload)
        )
        if self.checksum:
            _, cycles = self.stack.datapath.checksum(stage, len(payload))
            yield from proc.compute(cycles)
            yield from proc.compute_us(cal.cksum_fixed_us)
        header = TcpHeader(
            src_port=tcb.local_port, dst_port=tcb.remote_port,
            seq=seq, ack=sh.rcv_nxt,
            flags=TCP_ACK | (TCP_PSH if push else 0),
            window=tcb.rcv_wnd,
        )
        packet = build_segment(
            tcb.local_ip, tcb.remote_ip, header, payload,
            with_checksum=self.checksum,
            ident=self.stack.next_ident(), mtu=self.stack.mtu + 40,
        )
        yield from self._frame_and_send(proc, packet)
        if not rexmit:
            self._board.record(seq, payload, proc.engine.now)
            tcb.snd_nxt = (seq + len(payload)) & MASK32
            sh.ack_seq = tcb.snd_nxt

    def _send_flags(self, proc: "Process", flags: int, seq: int,
                    ack: int, options: bytes = b"") -> Generator:
        tcb = self.tcb
        yield from proc.compute_us(
            self.cal.tcp_send_build_us + self.cal.ip_process_us
        )
        header = TcpHeader(
            src_port=tcb.local_port, dst_port=tcb.remote_port,
            seq=seq, ack=ack, flags=flags, window=tcb.rcv_wnd,
            options=options,
        )
        packet = build_segment(
            tcb.local_ip, tcb.remote_ip, header, b"",
            with_checksum=self.checksum, ident=self.stack.next_ident(),
            mtu=self.stack.mtu + 40,
        )
        yield from self._frame_and_send(proc, packet)

    def _send_ack(self, proc: "Process") -> Generator:
        tcb = self.tcb
        yield from proc.compute_us(self.cal.tcp_ack_build_us)
        options = b""
        if tcb.sack_ok and self._ooo:
            blocks = self._ooo.blocks()[:MAX_SACK_BLOCKS]
            if blocks:
                options = sack_option(blocks)
                tcb.sack_blocks_tx += len(blocks)
        header = TcpHeader(
            src_port=tcb.local_port, dst_port=tcb.remote_port,
            seq=tcb.snd_nxt, ack=tcb.shared.rcv_nxt,
            flags=TCP_ACK, window=tcb.rcv_wnd, options=options,
        )
        packet = build_segment(
            tcb.local_ip, tcb.remote_ip, header, b"",
            with_checksum=self.checksum, ident=self.stack.next_ident(),
            mtu=self.stack.mtu + 40,
        )
        yield from self._frame_and_send(proc, packet)
        tcb.acks_sent += 1

    def _retransmit(self, proc: "Process") -> Generator:
        """Retransmission timeout: selective repeat over the scoreboard.

        Only unsacked segments are resent (SACKed ranges are already at
        the receiver — go-back-N resent them all); the congestion window
        collapses to one MSS and slow start restarts toward half the
        flight at loss, per AIMD.
        """
        self._sync_una(proc.engine.now)
        board = self._board
        if not board:
            return
        tcb = self.tcb
        sh = tcb.shared
        now = proc.engine.now
        tcb.retransmits += 1
        self._flow.retransmit(now)
        sh.ssthresh = max(tcb.snd_inflight // 2, 2 * tcb.mss)
        sh.cwnd = tcb.mss
        tcb.cwnd_acc = 0
        tcb.in_recovery = False   # an RTO supersedes any recovery episode
        self._dup_ack_count = 0
        if self.tel.enabled:
            self.tel.gauge("tcp.cwnd", conn=self.name).set(sh.cwnd)
            self.tel.gauge("tcp.ssthresh", conn=self.name).set(sh.ssthresh)
        self._cc_event("rto", now)
        skipped = 0
        for seg in list(board.segs):
            if seg.sacked:
                skipped += 1
                continue
            seg.rexmits += 1
            yield from self._send_data(
                proc, seg.payload, push=True, seq=seg.seq, rexmit=True
            )
        tcb.selective_rexmits += skipped

    # ------------------------------------------------------------------
    # the kernel fast path (Table VI)
    # ------------------------------------------------------------------
    def install_fastpath(self, kind: str = "ash", sandbox: bool = True) -> None:
        """Hoist the receive fast path into a handler.

        ``kind`` is ``"ash"`` (downloaded into the kernel; ``sandbox``
        selects the safe or the unsafe variant) or ``"upcall"``.
        Call after the connection is established.
        """
        from .fastpath import setup_fastpath  # local: fastpath imports tcb

        if self.tcb.state is not TcpState.ESTABLISHED:
            raise SocketError("install the fast path after establishment")
        # an ASH install refused under memory pressure degrades to the
        # upcall variant; record what actually went in
        self.handler_mode = setup_fastpath(self, kind=kind, sandbox=sandbox)

    @property
    def fastpath_hits(self) -> int:
        return self.tcb.shared.fastpath_count


def flags_syn_fin(flags: int) -> bool:
    """True when the segment consumes sequence space (SYN or FIN)."""
    return bool(flags & (TCP_SYN | TCP_FIN))
