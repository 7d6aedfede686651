"""The transmission control block, backed by real (simulated) memory.

The TCB's hot fields live in a *shared block* in the node's
physical memory rather than in Python attributes, because the paper's
TCP fast-path handler runs *in the kernel* against the application's
data structures: the ASH reads the expected sequence number, the buffer
geometry and the checksum constants from this block, and commits its
updates (RCV_NXT, WRITE_COUNT, SND_UNA) straight into it.  The library
reads and writes the same bytes, so library and handler stay coherent —
mediated by the ``lib_busy`` flag exactly as Section V-B describes
("the user-level TCP library is not currently using that Transmission
Control Block, to avoid concurrency problems between the library and
the handler").

The block's layout is declared once, ``SHARED_TCB_FIELDS``: one
little-endian u32 per name, in offset order.  The offsets the fast-path
builder bakes into the handler (``SHARED_TCB_OFFSET``), the block's
size and :class:`SharedTcb`'s attributes all derive from it.

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
import struct
from dataclasses import dataclass

from ...hw.memory import PhysicalMemory

__all__ = ["TcpState", "SharedTcb", "Tcb", "seq_lt", "seq_lte",
           "SHARED_TCB_SIZE", "SHARED_TCB_FIELDS", "SHARED_TCB_OFFSET"]

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


#: the shared block, declared once: its fields in offset order, each one
#: little-endian u32 (the handler is MIPS LE) at byte 4 * index
SHARED_TCB_FIELDS = (
    "lib_busy", "rcv_nxt", "snd_una", "buf_base", "buf_mask", "buf_size",
    "write_count", "read_count", "pseudo_in_const", "pseudo_ack_const",
    "ack_tmpl_addr", "reply_vci", "ack_seq", "ports_raw", "fastpath_count",
    # Congestion state lives here, not in Python: cwnd and ssthresh are
    # *application-durable* exactly like rcv_nxt -- a kernel crash must
    # not reset a flow's congestion memory (the path capacity it learned
    # is a property of the network, not of the kernel instance), and a
    # kernel-resident handler consuming pure ACKs needs the sender's
    # library to see a coherent window when it wakes.
    "cwnd", "ssthresh",
    # Nonzero while the library holds out-of-order segments in its
    # reassembly queue.  The fast-path handler must abort to the library
    # whenever this is set: committing an in-order segment in the kernel
    # would advance rcv_nxt *past* buffered data the handler knows
    # nothing about, deadlocking SACK recovery (the sender never resends
    # what the receiver already holds).
    "ooo_pending",
)
#: field name -> byte offset in the block (what the handler addresses)
SHARED_TCB_OFFSET = {name: 4 * i for i, name in enumerate(SHARED_TCB_FIELDS)}
SHARED_TCB_SIZE = 4 * len(SHARED_TCB_FIELDS)

_U32 = struct.Struct("<I")


def _field(off: int) -> property:
    """The u32 at byte ``off`` of the block: one ``struct`` read or
    write on the block's window, with no bounds test of its own."""
    unpack, pack = _U32.unpack_from, _U32.pack_into

    def get(s: "SharedTcb") -> int:
        return unpack(s.view, off)[0]

    def put(s: "SharedTcb", value: int) -> None:
        pack(s.view, off, value & MASK32)

    return property(get, put)


class SharedTcb:
    """Accessor for the memory-resident shared block: one attribute per
    name of ``SHARED_TCB_FIELDS``.

    The block's address never changes, so its bounds are checked once,
    here: a block reaching outside ``mem`` raises
    :class:`~repro.errors.MemoryFault` at construction, and each field
    access is one Python frame over the checked window."""

    def __init__(self, mem: PhysicalMemory, base: int):
        self.base = base
        #: the block's bytes in ``mem``, bounds-checked (a live view)
        self.view = mem.read_view(base, SHARED_TCB_SIZE)

    # -- snapshot / restore ------------------------------------------------
    # The shared block is *application-durable* state: it lives in plain
    # memory, so it survives a kernel crash byte-for-byte, and these two
    # give it an explicit serialization boundary — post-mortem capture
    # on a dead flow, or migration into a fresh memory.
    def snapshot(self) -> bytes:
        """The full block, verbatim (``SHARED_TCB_SIZE`` bytes)."""
        return bytes(self.view)

    def restore(self, blob: bytes) -> None:
        """Overwrite the block with a previous :meth:`snapshot`."""
        if len(blob) != SHARED_TCB_SIZE:
            raise ValueError(
                f"shared-TCB snapshot must be {SHARED_TCB_SIZE} bytes, "
                f"got {len(blob)}"
            )
        self.view[:] = blob

    def fields(self) -> dict[str, int]:
        """Field-level decode of the block (deterministic key order)."""
        return {name: getattr(self, name) for name in SHARED_TCB_FIELDS}

    @property
    def available(self) -> int:
        """In-order bytes buffered and not yet read by the application."""
        return (self.write_count - self.read_count) & MASK32

    @property
    def free_space(self) -> int:
        return self.buf_size - self.available


for _name, _off in SHARED_TCB_OFFSET.items():
    setattr(SharedTcb, _name, _field(_off))


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
