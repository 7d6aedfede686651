"""The TCP receive fast path as a downloadable handler.

Section V-B: "Our TCP implementation lowers the cost of data transfer
by placing the common-case fast path in a handler which can be run
either as an ASH or an upcall.  This handler employs dynamic ILP to
combine the checksum and copy of message data.  A handler can run when
the following constraints are satisfied: the packet is 'expected' (the
packet we receive is the one we have predicted), the user-level TCP
library is not currently using that Transmission Control Block ...,
and the TCP library is not behind in processing, so that messages stay
in order.  If these constraints are violated, the handler aborts and
the message is handled by the user-level library."

The handler is a real VCODE program following the paper's three-part
structure:

1. **inspect** — library-busy flag, port match, header prediction
   (flags == ACK or ACK|PSH, seq == RCV_NXT), buffer space and wrap
   checks; any failure is a voluntary abort back to the library;
2. **data manipulation** — one ``ash_dilp`` call copies the payload
   into the application's receive ring while accumulating the Internet
   checksum (dynamic ILP); the TCP header and pseudo-header are folded
   in and the segment is verified;
3. **commit** — RCV_NXT / WRITE_COUNT / SND_UNA are updated in the
   shared TCB, an ACK is built in the preformatted template (checksum
   computed in-kernel through the same pipe state) and sent with
   ``ash_send``, and the application is woken with ``ash_notify``.

The same program runs as an upcall (Table VI's third column): only the
cost environment changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...ash.handler import AshBuilder
from ...errors import AllocationError, SocketError
from ...kernel.upcall import UpcallHandler
from ...pipes import PIPE_READ, PIPE_WRITE, compile_pl, mk_cksum_pipe, pipel
from ...vcode.isa import Program
from ...vcode.registers import P_VAR
from ..checksum import le_word_sum
from ..headers import IPPROTO_TCP, Ipv4Header, TCP_ACK, TcpHeader, pseudo_header
from .tcb import SHARED_TCB_OFFSET as TCB, SHARED_TCB_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from .tcp import TcpConnection

__all__ = ["build_tcp_fastpath", "setup_fastpath"]

# message offsets (AN2 framing: the IP packet is the frame payload)
_TCP_OFF = Ipv4Header.SIZE          # 20
_PORTS_OFF = _TCP_OFF + 0           # src+dst ports as one word
_SEQ_OFF = _TCP_OFF + 4
_ACK_OFF = _TCP_OFF + 8
_DOFF_OFF = _TCP_OFF + 12           # data-offset byte (doff<<4)
_FLAGS_OFF = _TCP_OFF + 13
_CKSUM_OFF = _TCP_OFF + 16
_HDRS_LEN = _TCP_OFF + TcpHeader.SIZE  # 40


def _emit_fold2(b: AshBuilder, acc: int, tmp: int) -> None:
    """Fold a 32-bit one's-complement accumulator to 16 bits (twice)."""
    for _ in range(2):
        b.v_srl(tmp, acc, 16)
        b.v_andi(acc, acc, 0xFFFF)
        b.v_addu(acc, acc, tmp)


def build_tcp_fastpath(
    ilp_copy: int,
    ilp_read: int,
    cksum_pipe: int,
    checksum: bool = True,
) -> Program:
    """Emit the fast-path handler program.

    ``ilp_copy`` is the compiled copy(+checksum) pipeline, ``ilp_read``
    the read-only pipeline over the same pipe list (used to fold TCP
    headers into the same accumulator), ``cksum_pipe`` the checksum
    pipe's id within that list.  With ``checksum=False`` the data move
    is a pure DILP copy and no verification is emitted.
    """
    b = AshBuilder("tcp_fastpath" + ("" if checksum else "_nocksum"))
    PASS = b.label("pass")
    NOTIFY = b.label("notify")
    FLAGS_OK = b.label("flags_ok")

    # saved entry state (persistent class: survives trusted calls and,
    # incidentally, invocations — always rewritten at entry)
    msg = b.getreg(P_VAR)
    mlen = b.getreg(P_VAR)
    ctx = b.getreg(P_VAR)
    dlen = b.getreg(P_VAR)
    dst = b.getreg(P_VAR)
    b.v_move(msg, b.MSG)
    b.v_move(mlen, b.LEN)
    b.v_move(ctx, b.CTX)

    ta = b.getreg()
    tb = b.getreg()
    tc = b.getreg()

    # ---- part 1: can the fast path run? --------------------------------
    b.v_ld32(ta, ctx, TCB["lib_busy"])
    b.v_bne(ta, b.ZERO, PASS)              # library owns the TCB
    b.v_ld32(ta, msg, _PORTS_OFF)
    b.v_ld32(tb, ctx, TCB["ports_raw"])
    b.v_bne(ta, tb, PASS)                  # not this connection
    # the handler's fixed header arithmetic assumes a 20-byte TCP
    # header; a SACK-bearing segment (doff > 5) would be misparsed as
    # payload, so any option run aborts to the library
    b.v_ld8(ta, msg, _DOFF_OFF)
    b.v_li(tb, 0x50)
    b.v_bne(ta, tb, PASS)                  # options present: library's job
    # while the library holds out-of-order data, committing an in-order
    # segment here would advance RCV_NXT past ranges the handler cannot
    # see (and the sender, having seen them SACKed, will never resend)
    b.v_ld32(ta, ctx, TCB["ooo_pending"])
    b.v_bne(ta, b.ZERO, PASS)              # reassembly queue non-empty
    b.v_ld8(ta, msg, _FLAGS_OFF)
    b.v_li(tb, TCP_ACK)
    b.v_beq(ta, tb, FLAGS_OK)
    b.v_li(tb, TCP_ACK | 0x08)             # ACK|PSH
    b.v_bne(ta, tb, PASS)
    b.mark(FLAGS_OK)
    b.v_ld32(ta, msg, _SEQ_OFF)
    b.v_bswap32(ta, ta)
    b.v_ld32(tb, ctx, TCB["rcv_nxt"])
    b.v_bne(ta, tb, PASS)                  # header prediction miss

    # the ack field settles our outstanding sends (in-order delivery)
    b.v_ld32(ta, msg, _ACK_OFF)
    b.v_bswap32(ta, ta)
    b.v_st32(ta, ctx, TCB["snd_una"])

    b.v_li(ta, _HDRS_LEN)
    b.v_subu(dlen, mlen, ta)               # payload length
    b.v_beq(dlen, b.ZERO, NOTIFY)          # pure ack: nothing to place

    b.v_andi(ta, dlen, 3)
    b.v_bne(ta, b.ZERO, PASS)              # DILP wants word multiples
    # space: write_count - read_count + dlen <= buf_size
    b.v_ld32(ta, ctx, TCB["write_count"])
    b.v_ld32(tb, ctx, TCB["read_count"])
    b.v_subu(ta, ta, tb)
    b.v_addu(ta, ta, dlen)
    b.v_ld32(tb, ctx, TCB["buf_size"])
    b.v_bltu(tb, ta, PASS)                 # would overflow: library's job
    # wrap: pos + dlen must stay inside the ring
    b.v_ld32(ta, ctx, TCB["write_count"])
    b.v_ld32(tb, ctx, TCB["buf_mask"])
    b.v_and(ta, ta, tb)                    # pos
    b.v_addu(tb, ta, dlen)
    b.v_ld32(tc, ctx, TCB["buf_size"])
    b.v_bltu(tc, tb, PASS)                 # wraps: library's job
    b.v_ld32(tb, ctx, TCB["buf_base"])
    b.v_addu(dst, tb, ta)                  # destination in the ring

    # ---- part 2: integrated copy + checksum ------------------------------
    if checksum:
        b.v_li(b.A0, ilp_read)
        b.v_li(b.A1, cksum_pipe)
        b.v_li(b.A2, 0)
        b.v_call("ash_ilp_set")            # zero the accumulator
    b.v_addiu(ta, msg, _HDRS_LEN)          # payload source
    b.v_dilp(ilp_copy, ta, dst, dlen)      # copy (+cksum) in one pass
    if checksum:
        b.v_addiu(ta, msg, _TCP_OFF)       # fold the TCP header in
        b.v_li(b.A0, ilp_read)
        b.v_move(b.A1, ta)
        b.v_li(b.A2, 0)
        b.v_li(b.A3, TcpHeader.SIZE)
        b.v_call("ash_dilp")
        b.v_li(b.A0, ilp_read)
        b.v_li(b.A1, cksum_pipe)
        b.v_call("ash_ilp_get")
        b.v_move(ta, b.V0)
        b.v_ld32(tb, ctx, TCB["pseudo_in_const"])
        b.v_cksum32(ta, tb)                # + pseudo-header constant
        b.v_addiu(tb, dlen, TcpHeader.SIZE)
        b.v_bswap16(tb, tb)
        b.v_sll(tb, tb, 16)
        b.v_cksum32(ta, tb)                # + tcp_length (LE word domain)
        _emit_fold2(b, ta, tb)
        b.v_li(tb, 0xFFFF)
        b.v_bne(ta, tb, PASS)              # checksum failed: not ours to fix

    # ---- part 3: commit -------------------------------------------------
    b.v_ld32(ta, ctx, TCB["rcv_nxt"])
    b.v_addu(ta, ta, dlen)
    b.v_st32(ta, ctx, TCB["rcv_nxt"])
    b.v_ld32(tb, ctx, TCB["write_count"])
    b.v_addu(tb, tb, dlen)
    b.v_st32(tb, ctx, TCB["write_count"])
    b.v_ld32(tb, ctx, TCB["fastpath_count"])
    b.v_addiu(tb, tb, 1)
    b.v_st32(tb, ctx, TCB["fastpath_count"])

    # build the ACK in the preformatted template
    b.v_ld32(tc, ctx, TCB["ack_tmpl_addr"])
    b.v_ld32(tb, ctx, TCB["ack_seq"])
    b.v_bswap32(tb, tb)
    b.v_st32(tb, tc, _SEQ_OFF)             # seq = our snd_nxt
    b.v_bswap32(ta, ta)                    # ta held the new rcv_nxt
    b.v_st32(ta, tc, _ACK_OFF)             # ack = new rcv_nxt
    b.v_st16(b.ZERO, tc, _CKSUM_OFF)
    if checksum:
        b.v_li(b.A0, ilp_read)
        b.v_li(b.A1, cksum_pipe)
        b.v_li(b.A2, 0)
        b.v_call("ash_ilp_set")
        b.v_addiu(ta, tc, _TCP_OFF)
        b.v_li(b.A0, ilp_read)
        b.v_move(b.A1, ta)
        b.v_li(b.A2, 0)
        b.v_li(b.A3, TcpHeader.SIZE)
        b.v_call("ash_dilp")
        b.v_li(b.A0, ilp_read)
        b.v_li(b.A1, cksum_pipe)
        b.v_call("ash_ilp_get")
        b.v_move(ta, b.V0)
        b.v_ld32(tb, ctx, TCB["pseudo_ack_const"])
        b.v_cksum32(ta, tb)
        _emit_fold2(b, ta, tb)
        b.v_nor(ta, ta, b.ZERO)            # one's complement
        b.v_andi(ta, ta, 0xFFFF)
        b.v_st16(ta, tc, _CKSUM_OFF)
    # send the ack straight from the kernel
    b.v_ld32(tb, ctx, TCB["reply_vci"])
    b.v_move(b.A0, tc)
    b.v_li(b.A1, _HDRS_LEN)
    b.v_move(b.A2, tb)
    b.v_call("ash_send")

    b.mark(NOTIFY)
    b.v_call("ash_notify")                 # wake the application
    b.v_consume()

    b.mark(PASS)
    b.v_pass()
    return b.finish()


def setup_fastpath(conn: "TcpConnection", kind: str = "ash",
                   sandbox: bool = True) -> str:
    """Wire the fast path onto an established connection.

    Returns the kind actually installed: an ASH download refused under
    injected memory pressure degrades to the upcall variant of the same
    handler (next level of the delivery hierarchy) instead of failing
    the connection.
    """
    if not conn.stack.is_an2:
        raise SocketError(
            "the TCP fast-path handler currently targets the AN2 "
            "framing (the Ethernet variant needs the striped DILP "
            "back end and eth header offsets)"
        )
    tcb = conn.tcb
    sh = tcb.shared
    kernel = conn.kernel
    mem = kernel.node.memory

    # pipelines: one pipe list, two compiled engines over it
    pl = pipel(name=f"{conn.name}.fp")
    cksum_pipe = mk_cksum_pipe(pl) if conn.checksum else 0
    copy_engine = compile_pl(pl, PIPE_WRITE, cal=conn.cal)
    read_engine = compile_pl(pl, PIPE_READ, cal=conn.cal)
    ilp_copy = kernel.ash_system.register_ilp(copy_engine)
    ilp_read = kernel.ash_system.register_ilp(read_engine)

    # preformat the ACK template: [IP 20][TCP 20]
    ip = Ipv4Header(
        src=tcb.local_ip, dst=tcb.remote_ip, proto=IPPROTO_TCP,
        total_length=_HDRS_LEN, ident=0,
    )
    tcp = TcpHeader(
        src_port=tcb.local_port, dst_port=tcb.remote_port,
        seq=0, ack=0, flags=TCP_ACK, window=tcb.rcv_wnd,
    )
    mem.write(conn._tmpl_region.base, ip.pack() + tcp.pack())

    sh.ack_tmpl_addr = conn._tmpl_region.base
    sh.reply_vci = conn.stack.tx_vci(tcb.remote_ip)
    sh.ack_seq = tcb.snd_nxt
    # expected first word of the TCP header, as the handler loads it
    ports = (tcb.remote_port.to_bytes(2, "big")
             + tcb.local_port.to_bytes(2, "big"))
    sh.ports_raw = int.from_bytes(ports, "little")
    sh.pseudo_in_const = le_word_sum(
        pseudo_header(tcb.remote_ip, tcb.local_ip, IPPROTO_TCP, 0)
    )
    sh.pseudo_ack_const = le_word_sum(
        pseudo_header(tcb.local_ip, tcb.remote_ip, IPPROTO_TCP,
                      TcpHeader.SIZE)
    )

    program = build_tcp_fastpath(ilp_copy, ilp_read, cksum_pipe,
                                 checksum=conn.checksum)
    allowed = [
        (conn._ring_region.base, conn._ring_region.size),
        (sh.base, SHARED_TCB_SIZE),
        (conn._tmpl_region.base, conn._tmpl_region.size),
    ]
    if kind == "ash":
        try:
            ash_id = kernel.ash_system.download(
                program, allowed, user_word=sh.base, sandbox=sandbox
            )
        except AllocationError:
            kind = "upcall"  # degrade: same handler, upcall environment
        else:
            kernel.ash_system.bind(conn.endpoint, ash_id)
            conn.fastpath_ash_id = ash_id
    if kind == "upcall":
        conn.endpoint.upcall = UpcallHandler(
            program=program, user_word=sh.base, name=f"{conn.name}.upcall"
        )
    elif kind != "ash":
        raise SocketError(f"unknown fast-path kind {kind!r}")
    return kind
