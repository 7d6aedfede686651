"""The transmission control block, backed by real (simulated) memory.

The TCB's hot fields live in a 64-byte *shared block* in the node's
physical memory rather than in Python attributes, because the paper's
TCP fast-path handler runs *in the kernel* against the application's
data structures: the ASH reads the expected sequence number, the buffer
geometry and the checksum constants from this block, and commits its
updates (RCV_NXT, WRITE_COUNT, SND_UNA) straight into it.  The library
reads and writes the same bytes, so library and handler stay coherent —
mediated by the ``LIB_BUSY`` flag exactly as Section V-B describes
("the user-level TCP library is not currently using that Transmission
Control Block, to avoid concurrency problems between the library and
the handler").

Slow-path-only state (connection state machine, ISS, MSS, the peer's
advertised window, the SACK scoreboard and recovery episode flags)
stays in Python: the handler never touches it.  Congestion state —
CWND and SSTHRESH — sits in the shared block with the sequence
bookkeeping: it is application-durable (survives ``Kernel.crash()``
byte-for-byte, so a rebooted kernel does not re-probe a path the flow
already measured), and it is read by the library on every window-fill
even when a kernel-resident handler is the one consuming the ACKs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ...hw.memory import PhysicalMemory, Region

__all__ = ["TcpState", "SharedTcb", "Tcb", "seq_lt", "seq_lte",
           "SHARED_TCB_SIZE", "SHARED_TCB_FIELDS"]

MASK32 = 0xFFFFFFFF


def seq_lt(a: int, b: int) -> bool:
    """a < b in sequence space (RFC 793 modular comparison)."""
    return ((a - b) & MASK32) > 0x7FFFFFFF


def seq_lte(a: int, b: int) -> bool:
    return a == b or seq_lt(a, b)


class TcpState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT_1 = "fin-wait-1"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"


# shared-block field offsets (u32, little-endian: the handler is MIPS LE)
LIB_BUSY = 0
RCV_NXT = 4
SND_UNA = 8
BUF_BASE = 12
BUF_MASK = 16
BUF_SIZE = 20
WRITE_COUNT = 24
READ_COUNT = 28
PSEUDO_IN_CONST = 32
PSEUDO_ACK_CONST = 36
ACK_TMPL_ADDR = 40
REPLY_VCI = 44
ACK_SEQ = 48
PORTS_RAW = 52
FASTPATH_COUNT = 56
# Congestion state lives in the shared block, not in Python: cwnd and
# ssthresh are *application-durable* exactly like RCV_NXT — a kernel
# crash must not reset a flow's congestion memory (the path capacity it
# learned is a property of the network, not of the kernel instance),
# and a kernel-resident handler consuming pure ACKs needs the sender's
# library to see a coherent window when it wakes.
CWND = 60
SSTHRESH = 64
# Nonzero while the library holds out-of-order segments in its
# reassembly queue.  The fast-path handler must abort to the library
# whenever this is set: committing an in-order segment in the kernel
# would advance RCV_NXT *past* buffered data the handler knows nothing
# about, deadlocking SACK recovery (the sender never resends what the
# receiver already holds).
OOO_PENDING = 68
SHARED_TCB_SIZE = 72


#: every named u32 field of the shared block, in offset order
SHARED_TCB_FIELDS = (
    "lib_busy", "rcv_nxt", "snd_una", "buf_base", "buf_mask", "buf_size",
    "write_count", "read_count", "pseudo_in_const", "pseudo_ack_const",
    "ack_tmpl_addr", "reply_vci", "ack_seq", "ports_raw", "fastpath_count",
    "cwnd", "ssthresh", "ooo_pending",
)


class SharedTcb:
    """Accessor for the memory-resident shared block."""

    def __init__(self, mem: PhysicalMemory, base: int):
        self.mem = mem
        self.base = base

    # -- snapshot / restore ------------------------------------------------
    # The shared block is *application-durable* state: it lives in plain
    # memory, so it survives a kernel crash byte-for-byte, and these two
    # give it an explicit serialization boundary — post-mortem capture
    # on a dead flow, or migration into a fresh memory.
    def snapshot(self) -> bytes:
        """The full block, verbatim (``SHARED_TCB_SIZE`` bytes)."""
        return self.mem.read(self.base, SHARED_TCB_SIZE)

    def restore(self, blob: bytes) -> None:
        """Overwrite the block with a previous :meth:`snapshot`."""
        if len(blob) != SHARED_TCB_SIZE:
            raise ValueError(
                f"shared-TCB snapshot must be {SHARED_TCB_SIZE} bytes, "
                f"got {len(blob)}"
            )
        self.mem.write(self.base, blob)

    def fields(self) -> dict[str, int]:
        """Field-level decode of the block (deterministic key order)."""
        return {name: getattr(self, name) for name in SHARED_TCB_FIELDS}

    def _get(self, off: int) -> int:
        return self.mem.load_u32(self.base + off)

    def _set(self, off: int, value: int) -> None:
        self.mem.store_u32(self.base + off, value & MASK32)

    # field properties ----------------------------------------------------
    lib_busy = property(lambda s: s._get(LIB_BUSY),
                        lambda s, v: s._set(LIB_BUSY, v))
    rcv_nxt = property(lambda s: s._get(RCV_NXT),
                       lambda s, v: s._set(RCV_NXT, v))
    snd_una = property(lambda s: s._get(SND_UNA),
                       lambda s, v: s._set(SND_UNA, v))
    buf_base = property(lambda s: s._get(BUF_BASE),
                        lambda s, v: s._set(BUF_BASE, v))
    buf_mask = property(lambda s: s._get(BUF_MASK),
                        lambda s, v: s._set(BUF_MASK, v))
    buf_size = property(lambda s: s._get(BUF_SIZE),
                        lambda s, v: s._set(BUF_SIZE, v))
    write_count = property(lambda s: s._get(WRITE_COUNT),
                           lambda s, v: s._set(WRITE_COUNT, v))
    read_count = property(lambda s: s._get(READ_COUNT),
                          lambda s, v: s._set(READ_COUNT, v))
    pseudo_in_const = property(lambda s: s._get(PSEUDO_IN_CONST),
                               lambda s, v: s._set(PSEUDO_IN_CONST, v))
    pseudo_ack_const = property(lambda s: s._get(PSEUDO_ACK_CONST),
                                lambda s, v: s._set(PSEUDO_ACK_CONST, v))
    ack_tmpl_addr = property(lambda s: s._get(ACK_TMPL_ADDR),
                             lambda s, v: s._set(ACK_TMPL_ADDR, v))
    reply_vci = property(lambda s: s._get(REPLY_VCI),
                         lambda s, v: s._set(REPLY_VCI, v))
    ack_seq = property(lambda s: s._get(ACK_SEQ),
                       lambda s, v: s._set(ACK_SEQ, v))
    ports_raw = property(lambda s: s._get(PORTS_RAW),
                         lambda s, v: s._set(PORTS_RAW, v))
    fastpath_count = property(lambda s: s._get(FASTPATH_COUNT),
                              lambda s, v: s._set(FASTPATH_COUNT, v))
    cwnd = property(lambda s: s._get(CWND),
                    lambda s, v: s._set(CWND, v))
    ssthresh = property(lambda s: s._get(SSTHRESH),
                        lambda s, v: s._set(SSTHRESH, v))
    ooo_pending = property(lambda s: s._get(OOO_PENDING),
                           lambda s, v: s._set(OOO_PENDING, v))

    @property
    def available(self) -> int:
        """In-order bytes buffered and not yet read by the application."""
        return (self.write_count - self.read_count) & MASK32

    @property
    def free_space(self) -> int:
        return self.buf_size - self.available


@dataclass
class Tcb:
    """Slow-path connection state (plus a handle to the shared block)."""

    local_port: int
    remote_port: int
    local_ip: int
    remote_ip: int
    shared: SharedTcb
    state: TcpState = TcpState.CLOSED
    iss: int = 1000           #: initial send sequence
    snd_nxt: int = 0
    snd_wnd: int = 8192       #: peer's advertised window
    rcv_wnd: int = 8192       #: our advertised window
    mss: int = 536
    #: SACK negotiated on both ends (SACK-permitted exchanged in the
    #: handshake); gates block generation, scoreboard marking, and the
    #: receiver's out-of-order reassembly queue
    sack_ok: bool = False
    #: highest snd_nxt at fast-recovery entry: acks at or above it end
    #: the recovery episode (NewReno's ``recover`` variable)
    recover: int = 0
    #: inside a fast-recovery episode (entered on the dup-ack
    #: threshold, left on a full ack or a retransmission timeout)
    in_recovery: bool = False
    #: byte accumulator for congestion avoidance: cwnd grows one MSS
    #: per cwnd bytes acknowledged (byte-counted AIMD)
    cwnd_acc: int = 0
    # statistics (Section V-B reports the abort rate of the fast path)
    tx_segments: int = 0
    rx_segments: int = 0
    hdrpred_hits: int = 0
    slow_segments: int = 0
    acks_sent: int = 0
    retransmits: int = 0
    #: inbound segments dropped because the TCP checksum failed verify
    checksum_failures: int = 0
    #: duplicate ACKs received (the fast-retransmit trigger)
    dup_acks_rcvd: int = 0
    #: fast retransmissions (dup-ack threshold, no timer wait); with
    #: SACK these resend the first *hole*, not blindly the oldest seg
    fast_retransmits: int = 0
    #: fast-recovery episodes entered (cwnd halvings without an RTO)
    fast_recoveries: int = 0
    #: retransmissions that skipped SACKed segments (the selective
    #: part of selective repeat — go-back-N would have resent them)
    selective_rexmits: int = 0
    #: SACK blocks sent (receiver side) and received (sender side)
    sack_blocks_tx: int = 0
    sack_blocks_rx: int = 0

    @property
    def snd_inflight(self) -> int:
        return (self.snd_nxt - self.shared.snd_una) & MASK32

    def window_open(self, sacked_below_nxt: int = 0) -> int:
        """Bytes the send window currently admits.

        The binding constraint is ``min(cwnd, snd_wnd, rcv_wnd)`` —
        congestion window, the peer's advertised window, and our own —
        minus the bytes in flight.  ``sacked_below_nxt`` credits bytes
        the peer has selectively acknowledged: they are off the wire,
        so SACK lets new data flow during recovery where a cumulative
        view would stall.
        """
        cwnd = self.shared.cwnd or self.snd_wnd
        flight = self.snd_inflight - sacked_below_nxt
        return max(0, min(self.snd_wnd, self.rcv_wnd, cwnd) - flight)
