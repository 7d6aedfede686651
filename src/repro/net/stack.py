"""Per-host network stack state: addresses, ARP, framing helpers.

A :class:`NetStack` ties one host's protocol libraries to one NIC: its
IP (and MAC, on Ethernet), the ARP machinery, the datapath used for
cost-accounted copies/checksums, and the small amount of shared state
(IP ident counter) the libraries need.

On the AN2, demultiplexing is by virtual circuit (Section IV-A), so the
stack carries a peer map ``ip -> (tx_vci, rx_vci)``: the circuit to
send on, and the circuit the peer uses to reach us.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from ..errors import ProtocolError
from ..hw.link import Frame
from ..hw.nic.an2 import An2Nic
from ..hw.nic.ethernet import EthernetNic
from .arp import ArpCache, install_arp_responder, resolve
from .datapath import DataPath
from .headers import ETHERTYPE_IP, EthernetHeader, ip_aton
from .ip import Reassembler

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.process import Process

__all__ = ["NetStack"]


class NetStack:
    """One host's user-level networking state."""

    def __init__(
        self,
        kernel: "Kernel",
        nic,
        ip: str,
        mac: Optional[bytes] = None,
        an2_peers: Optional[dict[str, tuple[int, int]]] = None,
    ):
        self.kernel = kernel
        self.nic = nic
        self.node = kernel.node
        self.tel = kernel.node.telemetry
        #: per node, shared by every stack on it: pushed, bound once
        self._m_tx_frames = self.tel.counter("net.tx_frames")
        self.ip = ip_aton(ip)
        self.datapath = DataPath(kernel.node)
        self.reassembler = Reassembler()
        #: fast substrate: receive paths parse memoryviews of node
        #: memory instead of materializing bytes per hop
        self.zero_copy = kernel.engine.substrate == "fast"
        self._ident = 0
        self.is_an2 = isinstance(nic, An2Nic)
        if self.is_an2:
            self.peers = {
                ip_aton(peer): vcis for peer, vcis in (an2_peers or {}).items()
            }
            self.mac = b"\x00" * 6
            self.arp_cache = None
        else:
            if mac is None:
                raise ProtocolError("Ethernet stacks need a MAC address")
            if not isinstance(nic, EthernetNic):
                raise ProtocolError(f"unsupported NIC type {type(nic)}")
            self.mac = mac
            self.arp_cache = ArpCache()
            self.arp_ep = install_arp_responder(
                kernel, nic, self.ip, mac, self.arp_cache
            )
            self.peers = {}

    @property
    def mtu(self) -> int:
        return self.kernel.cal.an2_max_packet if self.is_an2 else self.kernel.cal.eth_mtu

    def next_ident(self) -> int:
        self._ident = (self._ident + 1) & 0xFFFF
        return self._ident

    # -- AN2 circuit lookup ------------------------------------------------
    def tx_vci(self, dst_ip: int) -> int:
        try:
            return self.peers[dst_ip][0]
        except KeyError:
            raise ProtocolError(
                f"no AN2 circuit configured for peer {dst_ip:#010x}"
            ) from None

    def rx_vci(self, dst_ip: int) -> int:
        try:
            return self.peers[dst_ip][1]
        except KeyError:
            raise ProtocolError(
                f"no AN2 circuit configured for peer {dst_ip:#010x}"
            ) from None

    # -- framing ------------------------------------------------------------
    def frame_for(self, dst_ip: int, ip_packet: bytes,
                  dst_mac: Optional[bytes] = None) -> Frame:
        """Wrap an IP packet for this stack's medium."""
        if self.tel.enabled:
            self._m_tx_frames.inc()
            self.node.trace(
                "net.tx_frame",
                lambda: {"dst_ip": f"{dst_ip:#010x}", "len": len(ip_packet)},
            )
        if self.is_an2:
            return Frame(ip_packet, vci=self.tx_vci(dst_ip))
        if dst_mac is None:
            dst_mac = self.arp_cache.lookup(dst_ip)
            if dst_mac is None:
                raise ProtocolError(
                    "destination MAC unknown; resolve first "
                    "(yield from stack.resolve_mac(proc, dst_ip))"
                )
        eth = EthernetHeader(dst=dst_mac, src=self.mac, ethertype=ETHERTYPE_IP)
        return Frame(eth.pack() + ip_packet)

    def resolve_mac(self, proc: "Process", dst_ip: int) -> Generator:
        if self.is_an2:
            return b"\x00" * 6
        self.node.trace("net.arp_resolve", lambda: {"dst_ip": f"{dst_ip:#010x}"})
        result = yield from resolve(
            proc, self.kernel, self.nic, self.ip, self.mac,
            self.arp_cache, self.arp_ep, dst_ip,
        )
        return result

    def ip_payload_view(self, desc) -> tuple[int, int]:
        """(address, length) of the IP packet within a received frame."""
        if self.tel.enabled:
            self.node.trace("net.rx_ip", lambda: {"len": desc.length})
        if self.is_an2:
            return desc.addr, desc.length
        return desc.addr + EthernetHeader.SIZE, desc.length - EthernetHeader.SIZE

    def read_ip_packet(self, desc) -> tuple[int, int, "bytes | memoryview"]:
        """(address, length, buffer) of the received IP packet.

        On the fast substrate the buffer is a zero-copy ``memoryview``
        over node memory — valid only until the receive buffer is
        replenished, so callers must materialize any payload they keep.
        On the legacy substrate it is a ``bytes`` copy (the original
        behavior).
        """
        ip_addr, ip_len = self.ip_payload_view(desc)
        mem = self.node.memory
        if self.zero_copy:
            return ip_addr, ip_len, mem.read_view(ip_addr, ip_len)
        return ip_addr, ip_len, mem.read(ip_addr, ip_len)
