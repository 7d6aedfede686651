"""User-level UDP (RFC 768), in the style of the paper's library.

The library is linked into the application: every cost it pays — header
construction, checksumming, the copy from network buffers into
application data structures — is charged to the calling process, which
is exactly the accounting Table II measures.

Configuration knobs mirror the paper's four measurement variants:

* ``checksum=False`` — rely on the AN2 board CRC ("no checksum"),
* ``in_place=True`` — the application uses the data where the DMA put
  it ("in place"; possible because the AN2 can DMA anywhere and the
  kernel hands the application the buffer itself),
* otherwise the payload is copied into the application buffer, with a
  *separate* checksum pass when checksumming is on ("our checksum and
  memory copy are not integrated for this measurement").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, TYPE_CHECKING

from ..errors import ChecksumError, ProtocolError
from ..hw.calibration import PRIO_USER
from ..kernel.dpf import Predicate
from .headers import (
    ETHERTYPE_IP,
    EthernetHeader,
    IPPROTO_UDP,
    Ipv4Header,
    UdpHeader,
)
from .ip import build_packets
from .stack import NetStack

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.process import Process

__all__ = ["UdpSocket", "UdpDatagram"]


@dataclass
class UdpDatagram:
    """A received datagram."""

    payload: bytes
    src_ip: int
    src_port: int
    dst_port: int
    #: where the payload lives (application buffer, or the receive
    #: buffer itself when in_place)
    addr: int = 0


class UdpSocket:
    """One bound UDP port."""

    def __init__(
        self,
        stack: NetStack,
        local_port: int,
        rx_vci: Optional[int] = None,
        checksum: bool = True,
        in_place: bool = False,
        name: Optional[str] = None,
    ):
        self.stack = stack
        self.kernel = stack.kernel
        self.cal = stack.kernel.cal
        self.local_port = local_port
        self.checksum = checksum
        self.in_place = in_place
        name = name or f"udp{local_port}"
        if stack.is_an2:
            if rx_vci is None:
                raise ProtocolError("AN2 UDP sockets need an rx_vci")
            # "the UDP implementation currently uses only the virtual
            # circuit index" for demultiplexing
            self.endpoint = self.kernel.create_endpoint_an2(
                stack.nic, rx_vci, name=name,
                buf_size=self.cal.an2_max_packet,
            )
        else:
            self.endpoint = self.kernel.create_endpoint_eth(
                stack.nic,
                [
                    Predicate(offset=12, size=2, value=ETHERTYPE_IP),
                    Predicate(offset=14 + 9, size=1, value=IPPROTO_UDP),
                    Predicate(offset=14 + 20 + 2, size=2, value=local_port),
                ],
                name=name,
            )
        cal = self.cal
        #: the fixed charges of a received datagram's run
        #: (``_recv_segments``): the poll check and the user receive
        #: path, the parse, the checksum's fixed part
        self._recv_charges = (
            (cal.us_to_cycles(cal.poll_check_us), PRIO_USER, True),
            (cal.us_to_cycles(cal.user_recv_path_us), PRIO_USER, True))
        self._parse_charge = (cal.us_to_cycles(cal.udp_recv_parse_us),
                              PRIO_USER, True)
        self._cksum_fixed_charge = (cal.us_to_cycles(cal.cksum_fixed_us),
                                    PRIO_USER, True)
        #: a send's build charge
        self._build_charge = (cal.us_to_cycles(cal.udp_send_build_us
                                               + cal.ip_process_us),
                              PRIO_USER, True)
        mem = self.kernel.node.memory
        self._staging = mem.alloc(f"{name}.staging", 65536)
        self._app_buf = mem.alloc(f"{name}.appbuf", 65536)
        self.tel = self.kernel.node.telemetry
        self.tel.add_collector(self._collect)
        self.rx_datagrams = 0
        self.tx_datagrams = 0
        self.checksum_failures = 0
        #: frames dropped because they would not parse (truncated DMA,
        #: mangled length fields)
        self.malformed = 0

    def _collect(self, reg) -> None:
        port = self.local_port
        reg.total("udp.rx_datagrams", self.rx_datagrams, port=port)
        reg.total("udp.tx_datagrams", self.tx_datagrams, port=port)
        reg.total("udp.checksum_failures", self.checksum_failures, port=port)
        reg.total("udp.malformed", self.malformed, port=port)

    # -- send ---------------------------------------------------------------
    def sendto(
        self,
        proc: "Process",
        payload: bytes,
        dst_ip: int,
        dst_port: int,
    ) -> Generator:
        """Send one datagram (fragmenting at the MTU if necessary): one
        run of charges (``Cpu.run_code``), split only where Ethernet
        resolves the next hop's address, which can wait (an ARP
        exchange)."""
        run_code = proc.cpu.run_code
        if self.stack.is_an2:
            yield from run_code(
                self._send_segments(payload, dst_ip, dst_port), proc)
        else:
            built = []
            yield from run_code(
                self._send_segments(payload, dst_ip, dst_port, built), proc)
            dst_mac = yield from self.stack.resolve_mac(proc, dst_ip)
            yield from run_code(
                self._packet_segments(built[0], dst_ip, dst_mac), proc)
        self.tx_datagrams += 1

    def _send_segments(self, payload: bytes, dst_ip: int, dst_port: int,
                       built: Optional[list] = None) -> Generator:
        """``sendto``'s charges: the library's build, the payload staged
        where the NIC can gather it and checksummed, then the packets'
        sends; with ``built``, the run ends at the datagram instead,
        appended there."""
        stack = self.stack
        # library work: allocate send buffers, initialize IP/UDP fields
        yield self._build_charge
        # the application's data, staged where the NIC can gather it
        self.kernel.node.memory.write(self._staging.base, payload)
        if self.checksum:
            _, cycles = stack.datapath.checksum(self._staging.base,
                                                len(payload))
            yield ((cycles, PRIO_USER, True), self._cksum_fixed_charge)
        datagram = UdpHeader.build(
            stack.ip, dst_ip, self.local_port, dst_port, payload,
            with_checksum=self.checksum,
        ) + payload
        if built is not None:
            built.append(datagram)
            return None
        return (yield from self._packet_segments(datagram, dst_ip, None))

    def _packet_segments(self, datagram: bytes, dst_ip: int,
                         dst_mac: Optional[bytes]) -> Generator:
        """The datagram's packets, each sent as ``sys_net_send`` sends
        (``send_segments``); the last crossing out is returned."""
        stack = self.stack
        last = None
        for packet in build_packets(
            stack.ip, dst_ip, IPPROTO_UDP, datagram,
            mtu=stack.mtu, ident=stack.next_ident(),
        ):
            if last is not None:
                yield last
            last = yield from self.kernel.send_segments(
                stack.nic, stack.frame_for(dst_ip, packet, dst_mac))
        return last

    # -- receive -------------------------------------------------------------
    def recvfrom(self, proc: "Process") -> Generator:
        """Poll for one datagram; returns a :class:`UdpDatagram`.

        Each received frame is one run of charges (``Cpu.run_code``,
        :meth:`_recv_segments`) from the poll check to the copy-out.
        Datagrams failing checksum verification are dropped (counted),
        and the wait continues.
        """
        kernel = self.kernel
        ring = self.endpoint.ring
        got: list = []
        while True:
            # the wait of ``Process.poll``: the item is discovered one
            # poll check after it arrives, which opens the run
            ok, desc = ring.try_get()
            if not ok:
                desc = yield from proc.block_on(ring.get())
            yield from proc.cpu.run_code(self._recv_segments(desc, got), proc)
            if not got:
                # dropped (a fragment waiting for the rest, malformed, a
                # failed checksum): keep waiting
                yield from kernel.sys_replenish(proc, self.endpoint, desc)
                continue
            payload, addr, ip_header, udp, copy_cycles = got.pop()
            if copy_cycles is not None:
                span = desc.span
                if span is not None:
                    span.stage("copy", kernel.engine.now)
                if self.tel.enabled:
                    self.tel.counter("copy.bytes", kind="udp_rx").inc(
                        udp.length - UdpHeader.SIZE)
                    self.tel.counter("copy.cycles", kind="udp_rx").inc(
                        copy_cycles)
            # materialize before the buffer is recycled under the view
            # (bytes() of bytes is a no-op on the legacy path)
            payload = bytes(payload)
            yield from kernel.sys_replenish(proc, self.endpoint, desc)
            self.rx_datagrams += 1
            return UdpDatagram(
                payload=payload,
                src_ip=ip_header.src,
                src_port=udp.src_port,
                dst_port=udp.dst_port,
                addr=addr,
            )

    def _recv_segments(self, desc, got: list) -> Generator:
        """``recvfrom``'s run for one frame: the poll check and the user
        receive path, the parse, the checksum pass and the copy into the
        application buffer, whose charge it returns.  The datagram goes
        on ``got`` as ``(payload, addr, ip_header, udp, copy_cycles)``
        (``copy_cycles`` None but on the copy path); a dropped frame
        leaves ``got`` empty."""
        stack = self.stack
        yield self._recv_charges
        # fast substrate: a zero-copy view of the receive buffer; every
        # slice below stays a view until materialized
        ip_addr, ip_len, raw = stack.read_ip_packet(desc)
        try:
            result = stack.reassembler.push(raw)
            if result is None:
                return None  # fragment: wait for the rest
            ip_header, datagram = result
            yield self._parse_charge
            udp = UdpHeader.unpack(datagram)
        except ProtocolError:
            # truncated DMA or mangled length fields: drop-and-count,
            # keep waiting
            self.malformed += 1
            return None
        payload_len = udp.length - UdpHeader.SIZE
        payload_off = UdpHeader.SIZE
        # a reassembled datagram no longer lives contiguously in the
        # receive buffer: it must take the copy path
        fragmented = (
            ip_header.total_length - Ipv4Header.SIZE != len(datagram)
        )

        if self.checksum and udp.checksum != 0:
            if fragmented:
                # verification over the reassembled bytes: model the
                # pass as touching payload-length bytes uncached
                cycles = 6 * (len(datagram) + 3) // 4
            else:
                # separate verification pass over the datagram
                _, cycles = stack.datapath.checksum(
                    ip_addr + Ipv4Header.SIZE, udp.length
                )
            yield ((cycles, PRIO_USER, True), self._cksum_fixed_charge)
            if not UdpHeader.verify(ip_header.src, ip_header.dst, datagram):
                self.checksum_failures += 1
                return None

        payload = datagram[payload_off:payload_off + payload_len]
        if fragmented:
            addr = self._app_buf.base
            self.kernel.node.memory.write(addr, payload)
            got.append((payload, addr, ip_header, udp, None))
            return (2 * payload_len, PRIO_USER, True)   # assembly copy
        if self.in_place:
            # zero copy: the application uses the receive buffer
            addr = ip_addr + Ipv4Header.SIZE + payload_off
            got.append((payload, addr, ip_header, udp, None))
            return None
        addr = self._app_buf.base
        cycles = stack.datapath.copy(ip_addr + Ipv4Header.SIZE + payload_off,
                                     addr, payload_len)
        got.append((payload, addr, ip_header, udp, cycles))
        return (cycles, PRIO_USER, True)
