"""Wire-format codecs: Ethernet, ARP, IPv4, UDP, TCP.

Real byte layouts, straight from the RFCs — frames on the simulated
wire are genuine packets (a capture of the AN2 link could be fed to a
real protocol analyzer, minus the ATM adaptation layer).  All
multi-byte fields are network byte order.

Addresses are plain integers internally; :func:`ip_aton`/:func:`ip_ntoa`
convert dotted-quad strings.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..errors import ProtocolError
from .checksum import inet_checksum, inet_checksum_final, ones_complement_add16

__all__ = [
    "ETHERTYPE_IP",
    "ETHERTYPE_ARP",
    "IPPROTO_UDP",
    "IPPROTO_TCP",
    "TCP_FIN", "TCP_SYN", "TCP_RST", "TCP_PSH", "TCP_ACK",
    "TCPOPT_EOL", "TCPOPT_NOP", "TCPOPT_SACK_PERMITTED", "TCPOPT_SACK",
    "ip_aton", "ip_ntoa", "mac_str",
    "EthernetHeader", "ArpPacket", "Ipv4Header", "UdpHeader", "TcpHeader",
    "pseudo_header",
    "sack_permitted_option", "sack_option", "parse_tcp_options",
]

ETHERTYPE_IP = 0x0800
ETHERTYPE_ARP = 0x0806

IPPROTO_TCP = 6
IPPROTO_UDP = 17

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10

# TCP option kinds (RFC 793 / RFC 2018)
TCPOPT_EOL = 0
TCPOPT_NOP = 1
TCPOPT_SACK_PERMITTED = 4
TCPOPT_SACK = 5

#: SACK blocks carried per segment: 3 fits (with the 2-byte option
#: header + 2 NOPs) inside the 40-byte option budget and is what real
#: stacks send when a timestamp option shares the space
MAX_SACK_BLOCKS = 3


def sack_permitted_option() -> bytes:
    """The 2-byte SACK-permitted option, NOP-padded to a word."""
    return bytes((TCPOPT_NOP, TCPOPT_NOP, TCPOPT_SACK_PERMITTED, 2))


def sack_option(blocks: list[tuple[int, int]]) -> bytes:
    """A SACK option carrying up to :data:`MAX_SACK_BLOCKS` blocks.

    Each block is ``(left, right)`` — sequence numbers of the first
    byte held and the first byte *not* held — NOP-padded to a word
    boundary as real stacks do.
    """
    blocks = blocks[:MAX_SACK_BLOCKS]
    if not blocks:
        return b""
    body = b"".join(struct.pack("!II", l & 0xFFFFFFFF, r & 0xFFFFFFFF)
                    for l, r in blocks)
    return bytes((TCPOPT_NOP, TCPOPT_NOP,
                  TCPOPT_SACK, 2 + len(body))) + body


def parse_tcp_options(options: bytes) -> dict:
    """Decode a TCP option run into ``{sack_permitted, sack_blocks}``.

    Unknown options are skipped by their length byte; malformed runs
    (a kind needing a length with none, or a length overrunning the
    buffer) raise :class:`ProtocolError` like any other bad header.
    """
    out: dict = {"sack_permitted": False, "sack_blocks": []}
    i = 0
    n = len(options)
    while i < n:
        kind = options[i]
        if kind == TCPOPT_EOL:
            break
        if kind == TCPOPT_NOP:
            i += 1
            continue
        if i + 1 >= n:
            raise ProtocolError("truncated TCP option")
        length = options[i + 1]
        if length < 2 or i + length > n:
            raise ProtocolError(f"bad TCP option length {length}")
        if kind == TCPOPT_SACK_PERMITTED:
            out["sack_permitted"] = True
        elif kind == TCPOPT_SACK:
            body = options[i + 2:i + length]
            if len(body) % 8:
                raise ProtocolError("SACK option not a block multiple")
            for off in range(0, len(body), 8):
                left, right = struct.unpack("!II", body[off:off + 8])
                out["sack_blocks"].append((left, right))
        i += length
    return out


def ip_aton(dotted: str) -> int:
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ProtocolError(f"bad IPv4 address {dotted!r}")
    value = 0
    for part in parts:
        try:
            octet = int(part)
        except ValueError:
            raise ProtocolError(f"bad IPv4 address {dotted!r}") from None
        if not 0 <= octet <= 255:
            raise ProtocolError(f"bad IPv4 address {dotted!r}")
        value = (value << 8) | octet
    return value


def ip_ntoa(addr: int) -> str:
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def mac_str(mac: bytes) -> str:
    return ":".join(f"{b:02x}" for b in mac)


@dataclass(frozen=True)
class EthernetHeader:
    """14-byte Ethernet II header."""

    dst: bytes
    src: bytes
    ethertype: int

    SIZE = 14

    def pack(self) -> bytes:
        if len(self.dst) != 6 or len(self.src) != 6:
            raise ProtocolError("MAC addresses are 6 bytes")
        return self.dst + self.src + struct.pack("!H", self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        if len(data) < cls.SIZE:
            raise ProtocolError("truncated Ethernet header")
        return cls(
            dst=bytes(data[0:6]),
            src=bytes(data[6:12]),
            ethertype=struct.unpack("!H", data[12:14])[0],
        )


@dataclass(frozen=True)
class ArpPacket:
    """ARP for IPv4-over-Ethernet (RFC 826); also serves RARP shapes."""

    opcode: int              #: 1 request, 2 reply, 3/4 RARP
    sender_mac: bytes
    sender_ip: int
    target_mac: bytes
    target_ip: int

    SIZE = 28
    REQUEST = 1
    REPLY = 2
    RARP_REQUEST = 3
    RARP_REPLY = 4

    def pack(self) -> bytes:
        return struct.pack(
            "!HHBBH6sI6sI",
            1,              # hardware type: Ethernet
            ETHERTYPE_IP,   # protocol type
            6, 4,           # address lengths
            self.opcode,
            self.sender_mac, self.sender_ip,
            self.target_mac, self.target_ip,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ArpPacket":
        if len(data) < cls.SIZE:
            raise ProtocolError("truncated ARP packet")
        (htype, ptype, hlen, plen, opcode, smac, sip, tmac, tip) = (
            struct.unpack("!HHBBH6sI6sI", data[:cls.SIZE])
        )
        if htype != 1 or ptype != ETHERTYPE_IP or hlen != 6 or plen != 4:
            raise ProtocolError("unsupported ARP format")
        return cls(opcode, smac, sip, tmac, tip)


@dataclass(frozen=True)
class Ipv4Header:
    """20-byte IPv4 header (no options)."""

    src: int
    dst: int
    proto: int
    total_length: int
    ident: int = 0
    ttl: int = 64
    flags: int = 0           #: bit 1 = DF, bit 0(of 3-bit field) = MF
    frag_offset: int = 0     #: in 8-byte units

    SIZE = 20
    MF = 0x1

    def pack(self) -> bytes:
        header = struct.pack(
            "!BBHHHBBHII",
            (4 << 4) | 5,                   # version + IHL
            0,                              # TOS
            self.total_length,
            self.ident,
            (self.flags << 13) | self.frag_offset,
            self.ttl,
            self.proto,
            0,                              # checksum placeholder
            self.src,
            self.dst,
        )
        cksum = inet_checksum_final(header)
        return header[:10] + struct.pack("!H", cksum) + header[12:]

    @classmethod
    def unpack(cls, data: bytes, verify: bool = True) -> "Ipv4Header":
        if len(data) < cls.SIZE:
            raise ProtocolError("truncated IPv4 header")
        (vihl, _tos, total_length, ident, fl_frag, ttl, proto,
         _cksum, src, dst) = struct.unpack("!BBHHHBBHII", data[:cls.SIZE])
        if vihl >> 4 != 4:
            raise ProtocolError(f"not IPv4 (version {vihl >> 4})")
        if (vihl & 0xF) != 5:
            raise ProtocolError("IPv4 options unsupported")
        if verify and inet_checksum(data[:cls.SIZE]) != 0xFFFF:
            raise ProtocolError("IPv4 header checksum failed")
        return cls(
            src=src, dst=dst, proto=proto, total_length=total_length,
            ident=ident, ttl=ttl,
            flags=fl_frag >> 13, frag_offset=fl_frag & 0x1FFF,
        )

    @property
    def more_fragments(self) -> bool:
        return bool(self.flags & self.MF)


def pseudo_header(src: int, dst: int, proto: int, length: int) -> bytes:
    """The 12-byte TCP/UDP pseudo-header (RFC 768/793)."""
    return struct.pack("!IIBBH", src, dst, 0, proto, length)


@dataclass(frozen=True)
class UdpHeader:
    """8-byte UDP header (RFC 768)."""

    src_port: int
    dst_port: int
    length: int
    checksum: int = 0

    SIZE = 8

    def pack(self) -> bytes:
        return struct.pack("!HHHH", self.src_port, self.dst_port,
                           self.length, self.checksum)

    @classmethod
    def unpack(cls, data: bytes) -> "UdpHeader":
        if len(data) < cls.SIZE:
            raise ProtocolError("truncated UDP header")
        src, dst, length, cksum = struct.unpack("!HHHH", data[:cls.SIZE])
        return cls(src, dst, length, cksum)

    @classmethod
    def build(cls, src_ip: int, dst_ip: int, src_port: int, dst_port: int,
              payload: bytes, with_checksum: bool = True) -> bytes:
        """Header bytes with the checksum filled in (or zero = disabled)."""
        length = cls.SIZE + len(payload)
        header = cls(src_port, dst_port, length).pack()
        if not with_checksum:
            return header
        pseudo = pseudo_header(src_ip, dst_ip, IPPROTO_UDP, length)
        cksum = inet_checksum_final(pseudo + header + payload)
        if cksum == 0:
            cksum = 0xFFFF  # RFC 768: transmitted as all-ones
        return header[:6] + struct.pack("!H", cksum)

    @staticmethod
    def verify(src_ip: int, dst_ip: int,
               segment: bytes | bytearray | memoryview) -> bool:
        """True when the datagram checksum is valid (or disabled).

        Accepts any buffer: the pseudo-header sum is folded into the
        segment sum with one's-complement addition (valid because the
        pseudo-header is even-length), so the segment is never copied
        into a concatenation.
        """
        if len(segment) < UdpHeader.SIZE:
            return False
        if segment[6] == 0 and segment[7] == 0:
            return True
        pseudo = pseudo_header(src_ip, dst_ip, IPPROTO_UDP, len(segment))
        total = ones_complement_add16(inet_checksum(pseudo), inet_checksum(segment))
        return total == 0xFFFF


@dataclass(frozen=True)
class TcpHeader:
    """TCP header (RFC 793): 20 fixed bytes plus an optional option run.

    ``options`` must be pre-padded to a 32-bit multiple (the builders in
    this module emit NOP padding); the data offset is derived from it.
    """

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    checksum: int = 0
    urgent: int = 0
    options: bytes = b""

    SIZE = 20          #: the fixed header; see :attr:`header_len`

    @property
    def header_len(self) -> int:
        """Total header length including options (the wire data offset)."""
        return self.SIZE + len(self.options)

    def pack(self) -> bytes:
        if len(self.options) % 4:
            raise ProtocolError("TCP options must pad to a word multiple")
        doff_words = 5 + len(self.options) // 4
        if doff_words > 15:
            raise ProtocolError("TCP options exceed the 40-byte budget")
        return struct.pack(
            "!HHIIBBHHH",
            self.src_port, self.dst_port,
            self.seq, self.ack,
            (doff_words << 4),   # data offset in words, reserved bits 0
            self.flags,
            self.window,
            self.checksum,
            self.urgent,
        ) + self.options

    @classmethod
    def unpack(cls, data: bytes) -> "TcpHeader":
        if len(data) < cls.SIZE:
            raise ProtocolError("truncated TCP header")
        (src, dst, seq, ack, off, flags, window, cksum, urg) = struct.unpack(
            "!HHIIBBHHH", bytes(data[:cls.SIZE])
        )
        doff_words = off >> 4
        if doff_words < 5:
            raise ProtocolError(f"bad TCP data offset {doff_words}")
        opt_len = (doff_words - 5) * 4
        if len(data) < cls.SIZE + opt_len:
            raise ProtocolError("truncated TCP options")
        options = bytes(data[cls.SIZE:cls.SIZE + opt_len])
        return cls(src, dst, seq, ack, flags, window, cksum, urg, options)

    def with_checksum(self, src_ip: int, dst_ip: int, payload: bytes) -> bytes:
        """Header bytes (including options) with the checksum filled in."""
        raw = self.pack()
        pseudo = pseudo_header(
            src_ip, dst_ip, IPPROTO_TCP, len(raw) + len(payload)
        )
        cksum = inet_checksum_final(pseudo + raw + payload)
        return raw[:16] + struct.pack("!H", cksum) + raw[18:]

    @staticmethod
    def verify(src_ip: int, dst_ip: int,
               segment: bytes | bytearray | memoryview) -> bool:
        pseudo = pseudo_header(src_ip, dst_ip, IPPROTO_TCP, len(segment))
        total = ones_complement_add16(inet_checksum(pseudo), inet_checksum(segment))
        return total == 0xFFFF

    def flag_names(self) -> str:
        names = []
        for bit, name in ((TCP_SYN, "SYN"), (TCP_ACK, "ACK"), (TCP_FIN, "FIN"),
                          (TCP_RST, "RST"), (TCP_PSH, "PSH")):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "none"
