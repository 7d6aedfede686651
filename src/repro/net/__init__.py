"""User-level protocol libraries: ARP/IP/UDP/TCP/HTTP/NFS."""

from .checksum import (
    inet_checksum,
    inet_checksum_final,
    inet_checksum_numpy,
    le_fold_final,
    le_word_sum,
    swab16,
)
from .datapath import DataPath
from .headers import (
    ArpPacket,
    EthernetHeader,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
    ip_aton,
    ip_ntoa,
)
from .http import HttpServer, http_get
from .ip import Reassembler, build_packets
from .nfs import MemFs, NfsClient, NfsServer
from .socket_api import TcpSocket, make_stacks, tcp_pair
from .stack import NetStack
from .tcp import TcpConnection, TcpState
from .udp import UdpDatagram, UdpSocket

__all__ = [
    "inet_checksum",
    "inet_checksum_final",
    "inet_checksum_numpy",
    "le_fold_final",
    "le_word_sum",
    "swab16",
    "DataPath",
    "ArpPacket",
    "EthernetHeader",
    "Ipv4Header",
    "TcpHeader",
    "UdpHeader",
    "ip_aton",
    "ip_ntoa",
    "HttpServer",
    "http_get",
    "Reassembler",
    "build_packets",
    "MemFs",
    "NfsClient",
    "NfsServer",
    "TcpSocket",
    "make_stacks",
    "tcp_pair",
    "NetStack",
    "TcpConnection",
    "TcpState",
    "UdpDatagram",
    "UdpSocket",
]
