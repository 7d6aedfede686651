"""A small socket-style veneer over the TCP/UDP libraries.

The protocol libraries expose the paper's experiment knobs directly;
applications (the examples, HTTP, NFS) prefer a plainer read/write
interface.  ``TcpSocket`` wraps a connection; :func:`tcp_pair` builds a
matched client/server connection pair over a two-node testbed, which is
the configuration every example uses.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from .headers import ip_aton
from .stack import NetStack
from .tcp import TcpConnection

if TYPE_CHECKING:  # pragma: no cover
    from ..bench.testbed import Testbed
    from ..kernel.process import Process

__all__ = ["TcpSocket", "make_stacks", "tcp_pair"]


class TcpSocket:
    """Stream socket semantics over a :class:`TcpConnection`."""

    def __init__(self, conn: TcpConnection):
        self.conn = conn

    def connect(self, proc: "Process") -> Generator:
        yield from self.conn.connect(proc)

    def accept(self, proc: "Process") -> Generator:
        yield from self.conn.accept(proc)

    def sendall(self, proc: "Process", data: bytes) -> Generator:
        yield from self.conn.write(proc, data)

    def recv_exact(self, proc: "Process", n: int) -> Generator:
        data = yield from self.conn.read(proc, n)
        return data

    def recv_line(self, proc: "Process", max_len: int = 4096) -> Generator:
        r"""Read up to and including a ``\r\n`` (or ``\n``) terminator."""
        line = bytearray()
        while len(line) < max_len:
            ch = yield from self.conn.read(proc, 1)
            if not ch:
                break
            line += ch
            if line.endswith(b"\n"):
                break
        return bytes(line)

    def close(self, proc: "Process") -> Generator:
        yield from self.conn.close(proc)

    @property
    def eof(self) -> bool:
        return self.conn.peer_fin and self.conn.tcb.shared.available == 0


def make_stacks(tb: "Testbed", client_ip: str = "10.0.0.1",
                server_ip: str = "10.0.0.2",
                flow: int = 0) -> tuple[NetStack, NetStack]:
    """AN2 stacks for flow ``flow`` of a testbed: circuits ``2*flow+1``
    (c->s) and ``2*flow+2`` (s->c), so many flows can share one pair."""
    c2s, s2c = 2 * flow + 1, 2 * flow + 2
    cstack = NetStack(tb.client_kernel, tb.client_nic, client_ip,
                      an2_peers={server_ip: (c2s, s2c)})
    sstack = NetStack(tb.server_kernel, tb.server_nic, server_ip,
                      an2_peers={client_ip: (s2c, c2s)})
    return cstack, sstack


def tcp_pair(
    cstack: NetStack,
    sstack: NetStack,
    server_port: int = 80,
    client_port: int = 5000,
    **conn_kwargs,
) -> tuple[TcpConnection, TcpConnection]:
    """A matched (client, server) connection pair over the AN2 stacks,
    each end receiving on the circuit its stack was given."""
    server_ip = sstack.ip
    client_ip = cstack.ip
    client = TcpConnection(
        cstack, client_port, server_ip, server_port,
        rx_vci=cstack.rx_vci(server_ip), iss=1000,
        name=f"c{client_port}", **conn_kwargs,
    )
    server = TcpConnection(
        sstack, server_port, client_ip, client_port,
        rx_vci=sstack.rx_vci(client_ip), iss=7000,
        name=f"s{server_port}", **conn_kwargs,
    )
    return client, server
